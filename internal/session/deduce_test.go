package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/deduce"
	"repro/internal/kb"
	"repro/internal/pair"
)

// offsetWorld is bookWorld with the right KB's entity IDs shifted by a
// pad of unconnected entities, so a pair and its orientation-swapped
// twin are numerically distinct — the fixture that makes the swapped-
// orientation cache bug observable (with aligned IDs, (a,b) and (b,a)
// collide by accident).
func offsetWorld(n int, seed int64) (*kb.KB, *kb.KB, *pair.Gold) {
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("left")
	k2 := kb.New("right")
	for i := 0; i < 5; i++ {
		k2.AddEntity(fmt.Sprintf("pad %d", i))
	}
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")
	wrote1, wrote2 := k1.AddRel("wrote"), k2.AddRel("authorOf")

	var gold []pair.Pair
	add := func(base string, perturb bool) (kb.EntityID, kb.EntityID) {
		u1 := k1.AddEntity("l:" + base)
		u2 := k2.AddEntity("r:" + base)
		l2 := base
		if perturb && rng.Intn(3) == 0 {
			l2 = base + " II"
		}
		k1.SetLabel(u1, base)
		k2.SetLabel(u2, l2)
		k1.AddAttrTriple(u1, name1, base)
		k2.AddAttrTriple(u2, name2, l2)
		gold = append(gold, pair.Pair{U1: u1, U2: u2})
		return u1, u2
	}
	for i := 0; i < n; i++ {
		a1, a2 := add(fmt.Sprintf("author %d", i), false)
		for b := 0; b < 2; b++ {
			b1, b2 := add(fmt.Sprintf("book %d %d", i, b), true)
			k1.AddRelTriple(a1, wrote1, b1)
			k2.AddRelTriple(a2, wrote2, b2)
		}
		add(fmt.Sprintf("editor %d", i), false)
	}
	return k1, k2, pair.NewGold(gold)
}

// drive answers every published batch in order with oracle labels and
// returns how many answers the session needed from the "crowd" (answers
// drained from the cache or deduced are not counted).
func drive(t *testing.T, s *Session, isMatch func(pair.Pair) bool) int {
	t.Helper()
	delivered := 0
	for !s.Done() {
		batch := s.NextBatch()
		if len(batch) == 0 {
			if s.Done() {
				break
			}
			t.Fatalf("session %s awaiting answers but published an empty batch", s.ID())
		}
		for _, q := range batch {
			labels := []Label{{WorkerID: 0, Quality: 0.999, IsMatch: isMatch(q.Pair)}}
			if err := s.Deliver(q.ID, labels); err != nil {
				t.Fatalf("Deliver(%s): %v", q.ID, err)
			}
			delivered++
		}
	}
	return delivered
}

// TestSwappedOrientationHitsCache is the regression test for the
// orientation dedupe gap: a session whose pipeline was prepared with the
// namespace's KBs swapped must still find the answers its siblings
// recorded — pair (a,b) answered in one orientation must be a cache (and
// deduction) hit for (b,a) in the other. Before orientation
// canonicalization, the reversed session missed every shared answer and
// re-posted the whole workload.
func TestSwappedOrientationHitsCache(t *testing.T) {
	k1, k2, gold := offsetWorld(5, 11)
	mirror := func(q pair.Pair) bool { return gold.IsMatch(pair.Pair{U1: q.U2, U2: q.U1}) }

	mgr := NewManager()
	a, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, a, gold.IsMatch)

	// Control: the reversed pipeline alone in a fresh namespace.
	control, err := NewManager().Create(core.Prepare(k2, k1, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	controlCost := drive(t, control, mirror)

	cache := mgr.Cache("books")
	hitsBefore := cache.Hits()
	b, err := mgr.Create(core.Prepare(k2, k1, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := drive(t, b, mirror)

	if cache.Hits() == hitsBefore {
		t.Fatalf("reversed-orientation session drained no shared answers (hits still %d)", hitsBefore)
	}
	if cost >= controlCost {
		t.Fatalf("reversed-orientation session cost %d answers, control needed %d — sharing saved nothing", cost, controlCost)
	}
	// Cached answers carry the exact labels the oracle would give, so the
	// shared run must still be byte-identical to the standalone one.
	assertResultsIdentical(t, control.Result(), b.Result())
}

// TestDeduceSessionMatchesSyncOracle is the metamorphic acceptance test
// for session-level deduction: a Deduce-on session fed its answers out
// of order — including answers for questions deduction has already
// skipped, which must be swallowed, not rejected — reaches a result
// byte-identical to the synchronous Deduce-on oracle run, at 1 and 4
// shards, with and without a namespace cache.
func TestDeduceSessionMatchesSyncOracle(t *testing.T) {
	k1, k2, gold := bookWorld(6, 23)
	for _, shards := range []int{1, 4} {
		mod := func(c *core.Config) { c.Deduce = true; c.Shards = shards }
		want := core.Prepare(k1, k2, testConfig(mod)).Run(core.NewOracleAsker(gold.IsMatch))
		if want.Deduced == 0 {
			t.Fatalf("fixture too easy: the %d-shard oracle run deduced nothing", shards)
		}

		t.Run(fmt.Sprintf("shards=%d/no-cache", shards), func(t *testing.T) {
			s := New("s1", core.Prepare(k1, k2, testConfig(mod)), nil)
			driveShuffled(t, s, gold, rand.New(rand.NewSource(int64(shards))))
			assertResultsIdentical(t, want, s.Result())
		})
		t.Run(fmt.Sprintf("shards=%d/cached", shards), func(t *testing.T) {
			mgr := NewManager()
			s, err := mgr.Create(core.Prepare(k1, k2, testConfig(mod)), "books", nil)
			if err != nil {
				t.Fatal(err)
			}
			driveShuffled(t, s, gold, rand.New(rand.NewSource(int64(shards)+100)))
			assertResultsIdentical(t, want, s.Result())
		})
	}
}

// TestDeduceSnapshotRestore proves deductions are replayable, never
// persisted: a Deduce-on session snapshotted mid-run restores through
// answer replay alone (the deduction skips recur identically, because
// each is a pure function of the applied-answer prefix) and finishes
// byte-identical to the synchronous oracle.
func TestDeduceSnapshotRestore(t *testing.T) {
	k1, k2, gold := bookWorld(10, 41)
	mod := func(c *core.Config) { c.Deduce = true }
	want := core.Prepare(k1, k2, testConfig(mod)).Run(core.NewOracleAsker(gold.IsMatch))

	s := New("job-7", core.Prepare(k1, k2, testConfig(mod)), nil)
	for i := 0; i < 2 && !s.Done(); i++ {
		for _, q := range s.NextBatch() {
			if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Done() {
		t.Fatal("fixture finished before the snapshot point")
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(core.Prepare(k1, k2, testConfig(mod)), nil, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	drive(t, restored, gold.IsMatch)
	assertResultsIdentical(t, want, restored.Result())
}

// TestDeduceWALRecovery crashes a Deduce-on journaled session mid-run
// and recovers it from snapshot + WAL suffix in a second manager: the
// replay re-deduces every skip from the recorded answers and the
// finished result is byte-identical to the synchronous oracle.
func TestDeduceWALRecovery(t *testing.T) {
	k1, k2, gold := bookWorld(10, 53)
	mod := func(c *core.Config) { c.Deduce = true }
	want := core.Prepare(k1, k2, testConfig(mod)).Run(core.NewOracleAsker(gold.IsMatch))

	st := NewMemStore()
	mgr := NewManagerStore(st)
	s, err := mgr.Create(core.Prepare(k1, k2, testConfig(mod)), "books", []byte("spec"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && !s.Done(); i++ {
		for _, q := range s.NextBatch() {
			if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fixture finished before the crash point")
	}

	// "Crash": abandon the first manager, recover from its store.
	mgr2 := NewManagerStore(st)
	recovered, err := mgr2.Recover(func(id string, meta []byte) (*core.Prepared, string, error) {
		return core.Prepare(k1, k2, testConfig(mod)), "books", nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %v, want one session", recovered)
	}
	r, ok := mgr2.Get(recovered[0])
	if !ok {
		t.Fatal("recovered session not registered")
	}
	drive(t, r, gold.IsMatch)
	assertResultsIdentical(t, want, r.Result())
}

// TestDeduceRecoverTwice recovers a Deduce-on session from disk twice.
// Answering the opening batches last-first makes the loop drop buffered
// answers whose questions an earlier batch-mate's cascade resolved; the
// log keeps them, so the recovered session must append after them, not
// at the count of answers its loop holds, or the second recovery finds a
// gap in the log. It then finishes byte-identical to the synchronous run.
func TestDeduceRecoverTwice(t *testing.T) {
	k1, k2, gold := bookWorld(10, 3)
	mod := func(c *core.Config) { c.Deduce = true }
	want := core.Prepare(k1, k2, testConfig(mod)).Run(core.NewOracleAsker(gold.IsMatch))
	dir := t.TempDir()
	open := func() *Manager {
		st, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewManagerStore(st)
	}
	recoverOne := func() (*Manager, *Session) {
		mgr := open()
		ids, err := mgr.Recover(func(string, []byte) (*core.Prepared, string, error) {
			return core.Prepare(k1, k2, testConfig(mod)), "books", nil
		})
		if err != nil || len(ids) != 1 {
			t.Fatalf("Recover = %v, %v", ids, err)
		}
		s, _ := mgr.Get(ids[0])
		return mgr, s
	}

	mgr := open()
	s, err := mgr.Create(core.Prepare(k1, k2, testConfig(mod)), "books", []byte("spec"))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 2; i++ {
		batch := s.NextBatch()
		for j := len(batch) - 1; j >= 0; j-- {
			if err := s.Deliver(batch[j].ID, oracleLabels(gold, batch[j].Pair)); err != nil {
				t.Fatal(err)
			}
			delivered++
		}
	}
	snap := s.snapshot()
	if held := len(snap.Applied) + len(snap.Pending); held >= delivered {
		t.Fatalf("fixture dropped no answer: the loop holds %d of %d", held, delivered)
	}
	mgr.Close()

	mgr, s = recoverOne()
	q := s.NextBatch()[0]
	if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistErr(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr, s = recoverOne()
	defer mgr.Close()
	drive(t, s, gold.IsMatch)
	assertResultsIdentical(t, want, s.Result())
}

// TestDeduceTierAnswersAtTheCursor holds the namespace tier to the loop's
// cursor: every answer it journals for a session is one the loop applies.
// A sibling (µ 4, budget 15) answers bookWorld(10, 1) first; a Deduce-on
// session with µ 8 then takes most of its answers from the tier. A drain
// that asked the tier about the whole batch journaled one of them ahead of
// the cursor, and the loop dropped it once an earlier batch-mate's cascade
// resolved its question. The log that drain wrote, kept in testdata with
// the dropped answer in it, must still recover to the same session, from
// every prefix.
func TestDeduceTierAnswersAtTheCursor(t *testing.T) {
	k1, k2, gold := bookWorld(10, 1)
	mod := func(c *core.Config) { c.Deduce, c.Mu = true, 8 }
	prep := func() *core.Prepared { return core.Prepare(k1, k2, testConfig(mod)) }
	want := prep().Run(core.NewOracleAsker(gold.IsMatch))

	st, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerStore(st)
	defer mgr.Close()
	sibling, err := mgr.Create(core.Prepare(k1, k2, testConfig(func(c *core.Config) { c.Deduce, c.Budget = true, 15 })), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sibling, gold.IsMatch)
	s, err := mgr.Create(prep(), "books", []byte("spec"))
	if err != nil {
		t.Fatal(err)
	}
	sent := pair.Set{}
	for !s.Done() {
		for _, q := range s.NextBatch() {
			sent.Add(q.Pair)
			if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertResultsIdentical(t, want, s.Result())
	rec, err := st.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	journal, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	applied := map[pair.Pair][]Label{}
	for _, a := range s.loop.History() {
		applied[a.Pair] = a.Labels
	}
	tier := 0
	for _, a := range journal.Applied {
		if q := (pair.Pair{U1: a.U1, U2: a.U2}); !sent.Has(q) {
			tier++
			if labels, ok := applied[q]; !ok || !reflect.DeepEqual(labels, a.Labels) {
				t.Errorf("the tier's answer for %v is journaled but not applied", q)
			}
		}
	}
	if tier == 0 {
		t.Fatal("fixture too easy: the tier answered nothing")
	}
	final, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	oldLog, err := os.ReadFile("testdata/tier-drop-whole-batch.log")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(oldLog, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	for n := 1; n <= len(lines); n++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "sessions", "s2.log"), bytes.Join(lines[:n], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewManagerStore(st)
		ids, err := mgr.Recover(func(string, []byte) (*core.Prepared, string, error) { return prep(), "books", nil })
		if err != nil || len(ids) != 1 {
			t.Fatalf("%d lines of the older log: recovered %v, %v", n, ids, err)
		}
		r, _ := mgr.Get(ids[0])
		if n == len(lines) {
			rec, err := st.Get(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if held, err := rec.Replay(); err != nil || len(held.Applied) <= len(journal.Applied) {
				t.Fatalf("the older log holds %d answers (%v), this run's %d: no dropped answer to replay",
					len(held.Applied), err, len(journal.Applied))
			}
			if got, err := r.Snapshot(); err != nil || !bytes.Equal(got, final) {
				t.Errorf("the older log recovered to a different session (%v):\n got %s\nwant %s", err, got, final)
			}
		}
		drive(t, r, gold.IsMatch)
		assertResultsIdentical(t, want, r.Result())
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheDeduceTier exercises the namespace tier's one lookup directly:
// a sibling's answer is served as recorded, recorded answers become
// deduction facts, and a pair no session answered is served by deduction
// under the 1:1 constraint, as a synthesized worker -1 label. Each answer
// the tier supplies counts one hit; reserve's probe counts none.
func TestCacheDeduceTier(t *testing.T) {
	c := NewCache()
	p := func(a, b int) pair.Pair { return pair.Pair{U1: kb.EntityID(a), U2: kb.EntityID(b)} }
	lab := func(match bool) []crowd.Label {
		return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: match}}
	}
	tier := func(q pair.Pair, deducing bool) []crowd.Label {
		t.Helper()
		labels, ok := c.answer(q, deducing)
		if ok != (labels != nil) {
			t.Fatalf("answer(%v) = %v, %v", q, labels, ok)
		}
		return labels
	}
	c.put(p(1, 2), lab(true))
	if got := tier(p(1, 2), true); !reflect.DeepEqual(got, lab(true)) {
		t.Fatalf("sibling's answer served as %v", got)
	}
	if v := c.ded.Lookup(p(1, 2)); v != deduce.Match {
		t.Fatalf("recorded match not deducible: %v", v)
	}
	// The 1:1 constraint: entity 1 is matched to 2, so (1,3) is a
	// deduced non-match even though nobody answered it — but only for a
	// session that deduces.
	if got := tier(p(1, 3), false); got != nil {
		t.Fatalf("deduced %v for a session without Deduce", got)
	}
	if !c.reserve(p(1, 3), "s1", false) || c.reserve(p(1, 4), "s1", true) {
		t.Fatal("reserve must refuse exactly what the deducing tier can answer")
	}
	if got := c.DeduceStats().Hits; got != 0 {
		t.Fatalf("reserve's probe counted %d deduction hits", got)
	}
	if got := tier(p(1, 3), true); !reflect.DeepEqual(got, deducedLabels(deduce.NonMatch)) {
		t.Fatalf("matched-elsewhere pair answered %v, want the synthesized non-match", got)
	}
	if got := tier(p(4, 5), true); got != nil {
		t.Fatalf("unrelated pair answered %v", got)
	}
	// Indefinite and synthesized answers record no facts.
	c.put(p(8, 9), nil)
	before := c.DeduceStats().Unions
	c.put(p(6, 7), deducedLabels(deduce.Match))
	if c.DeduceStats().Unions != before {
		t.Fatal("synthesized answer was re-recorded as a fact")
	}
	if got := tier(p(6, 8), true); got != nil {
		t.Fatalf("synthesized answer leaked into the store: (6,8) answered %v", got)
	}
	if stats := c.DeduceStats(); stats.Hits != 1 || stats.Unions != 1 || c.Hits() != 1 || c.Misses() != 3 {
		t.Fatalf("counters %+v, %d hits, %d misses; want 1 deduction hit, 1 union, 1 hit, 3 misses",
			stats, c.Hits(), c.Misses())
	}
}

// TestCacheDeduceConflicts pins what remp_deduce_conflicts_total counts:
// answers the namespace store rejects as contradicting its facts. A
// second match for an already-matched entity is one; non-match answers
// that contradict nothing are none.
func TestCacheDeduceConflicts(t *testing.T) {
	p := func(a, b int) pair.Pair { return pair.Pair{U1: kb.EntityID(a), U2: kb.EntityID(b)} }
	lab := func(match bool) []crowd.Label {
		return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: match}}
	}
	c := NewCache()
	c.put(p(1, 2), lab(true))
	c.put(p(1, 3), lab(true))
	if got := c.DeduceStats(); got.Conflicts != 1 || got.Unions != 1 {
		t.Fatalf("(a,b) then (a,c) matched: %+v, want 1 union and 1 conflict", got)
	}

	c = NewCache()
	for i := 0; i < 10; i++ {
		c.put(p(i, i+1), lab(false))
	}
	if got := c.DeduceStats(); got.Conflicts != 0 {
		t.Fatalf("non-match answers counted as conflicts: %+v", got)
	}
}

// TestCrossSessionDeduction makes the namespace tier fire for real. A
// sibling's recorded match (primed into the namespace cache, as another
// session's DeliverPair would) implies — by the 1:1 constraint — a
// non-match for every competitor of the matched entity. A Deduce-on
// session that opens such a competitor, without ever having seen the
// implying answer, must not post the question; once its cursor reaches
// the question, the deduction tier answers it with a synthesized label.
// That label carries the oracle's strength and direction, so the result
// stays byte-identical to the standalone synchronous run. In
// bookWorld(6, 15) the target (2,5) opens the first batch, so the loop
// cannot resolve it before its cursor arrives.
func TestCrossSessionDeduction(t *testing.T) {
	k1, k2, gold := bookWorld(6, 15)
	mod := func(c *core.Config) { c.Deduce = true }
	want := core.Prepare(k1, k2, testConfig(mod)).Run(core.NewOracleAsker(gold.IsMatch))

	// Find a non-gold pair q in the opening batch whose gold match
	// (q.U1's true partner — bookWorld aligns IDs, so it is (U1, U1)) is
	// not itself in the batch: the batch cannot resolve q internally, so
	// only the namespace tier can close it.
	probe := New("probe", core.Prepare(k1, k2, testConfig(mod)), nil)
	batch := probe.NextBatch()
	inBatch := func(p pair.Pair) bool {
		for _, b := range batch {
			if b.Pair == p {
				return true
			}
		}
		return false
	}
	var target, implied pair.Pair
	for _, q := range batch {
		g := pair.Pair{U1: q.Pair.U1, U2: kb.EntityID(q.Pair.U1)}
		if !gold.IsMatch(q.Pair) && gold.IsMatch(g) && !inBatch(g) {
			target, implied = q.Pair, g
			break
		}
	}
	if target == (pair.Pair{}) {
		t.Fatal("fixture has no competitor question whose gold match is outside the opening batch")
	}

	mgr := NewManager()
	cache := mgr.Cache("books")
	cache.put(implied, oracleLabels(gold, implied)) // the sibling's answer

	s, err := mgr.Create(core.Prepare(k1, k2, testConfig(mod)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return mgr.DeduceStats()["books"].Hits }
	// Polling counts no hit: the tier's check of a withheld question is
	// not an answer it supplies.
	published, before := s.NextBatch(), hits()
	if again := s.NextBatch(); len(again) != len(published) || hits() != before {
		t.Fatalf("a repeated NextBatch published %d of %d questions and moved the deduction hits %d → %d",
			len(again), len(published), before, hits())
	}
	for _, q := range published {
		if q.Pair == target {
			t.Fatalf("%v was published although the namespace's answers imply its verdict", target)
		}
	}
	deducedInHistory := func() (n int, sawTarget bool) {
		for _, a := range s.loop.History() {
			if a.Labels[0].WorkerID == DeducedWorkerID {
				n++
				sawTarget = sawTarget || a.Pair == target
			}
		}
		return n, sawTarget
	}
	// Answer in order until the cursor has passed the target.
	for _, answered := deducedInHistory(); !answered; _, answered = deducedInHistory() {
		batch := s.NextBatch()
		if s.Done() || len(batch) == 0 {
			t.Fatalf("the cursor never reached %v with a deduced answer", target)
		}
		if err := s.Deliver(batch[0].ID, oracleLabels(gold, batch[0].Pair)); err != nil {
			t.Fatal(err)
		}
	}
	if hits() == 0 {
		t.Fatal("namespace deduction tier never fired")
	}
	drive(t, s, gold.IsMatch)
	assertResultsIdentical(t, want, s.Result())
	if n, _ := deducedInHistory(); hits() != uint64(n) {
		t.Fatalf("%d deduction hits, but %d answers from worker %d applied", hits(), n, DeducedWorkerID)
	}
}
