package session

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/deduce"
	"repro/internal/kb"
	"repro/internal/pair"
)

// bookWorld builds a small two-KB fixture: authors linked to their books,
// with one isolated pair per cluster so every pipeline stage has work.
func bookWorld(n int, seed int64) (*kb.KB, *kb.KB, *pair.Gold) {
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("left")
	k2 := kb.New("right")
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

// oracleLabels reproduces core.OracleAsker's labels exactly, so a session
// answered with them must match a synchronous oracle run byte for byte.
func oracleLabels(gold *pair.Gold, q pair.Pair) []crowd.Label {
	return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: gold.IsMatch(q)}}
}

func testConfig(mod func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mu = 4
	if mod != nil {
		mod(&cfg)
	}
	return cfg
}

func assertResultsIdentical(t *testing.T, want, got *core.Result) {
	t.Helper()
	for _, s := range []struct {
		name string
		x, y pair.Set
	}{
		{"Matches", want.Matches, got.Matches},
		{"Confirmed", want.Confirmed, got.Confirmed},
		{"Propagated", want.Propagated, got.Propagated},
		{"IsolatedPredicted", want.IsolatedPredicted, got.IsolatedPredicted},
		{"NonMatches", want.NonMatches, got.NonMatches},
	} {
		if s.x.Len() != s.y.Len() {
			t.Fatalf("%s size differs: want %d, got %d", s.name, s.x.Len(), s.y.Len())
		}
		for _, p := range s.x.Sorted() {
			if !s.y.Has(p) {
				t.Fatalf("%s: %v present in one result only", s.name, p)
			}
		}
	}
	if want.Questions != got.Questions {
		t.Fatalf("Questions differ: want %d, got %d", want.Questions, got.Questions)
	}
	if want.Deduced != got.Deduced {
		t.Fatalf("Deduced differ: want %d, got %d", want.Deduced, got.Deduced)
	}
	if want.Loops != got.Loops {
		t.Fatalf("Loops differ: want %d, got %d", want.Loops, got.Loops)
	}
}

// driveShuffled answers every published batch with oracle labels delivered
// in a shuffled order, exercising the out-of-order buffering path.
func driveShuffled(t *testing.T, s *Session, gold *pair.Gold, rng *rand.Rand) {
	t.Helper()
	for !s.Done() {
		batch := s.NextBatch()
		if len(batch) == 0 {
			t.Fatalf("session %s awaiting answers but published an empty batch", s.ID())
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		for _, q := range batch {
			if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				t.Fatalf("Deliver(%s): %v", q.ID, err)
			}
		}
	}
}

// TestSessionMatchesSynchronousRun is the acceptance equivalence test: a
// session fed answers out of order must produce a byte-identical Result to
// the synchronous Run, across configuration variants.
func TestSessionMatchesSynchronousRun(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"default", nil},
		{"budgeted", func(c *core.Config) { c.Budget = 9; c.Mu = 3 }},
		{"max-loops", func(c *core.Config) { c.MaxLoops = 2 }},
		{"exhaust", func(c *core.Config) { c.ExhaustBudget = true; c.Budget = 15 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, k2, gold := bookWorld(6, 21)

			sync := core.Prepare(k1, k2, testConfig(tc.mod)).Run(core.NewOracleAsker(gold.IsMatch))

			s := New("s1", core.Prepare(k1, k2, testConfig(tc.mod)), nil)
			driveShuffled(t, s, gold, rand.New(rand.NewSource(7)))
			assertResultsIdentical(t, sync, s.Result())
			if sync.Matches.Len() == 0 {
				t.Fatal("fixture resolved nothing; the equivalence is vacuous")
			}
		})
	}
}

// TestSessionRejectsBadDeliveries pins the Deliver error contract.
func TestSessionRejectsBadDeliveries(t *testing.T) {
	k1, k2, gold := bookWorld(4, 22)
	s := New("s1", core.Prepare(k1, k2, testConfig(nil)), nil)

	batch := s.NextBatch()
	if len(batch) == 0 {
		t.Fatal("no opening batch")
	}
	if err := s.Deliver("not-an-id", oracleLabels(gold, batch[0].Pair)); err == nil {
		t.Error("malformed question id accepted")
	}
	if err := s.Deliver("999999-999999", oracleLabels(gold, batch[0].Pair)); err == nil {
		t.Error("answer for a question outside the open batch accepted")
	}
	// Spellings that name the open question without being its ID: U1
	// wrapped past int32, a sign, a leading zero.
	q := batch[0].Pair
	for _, id := range []string{
		fmt.Sprintf("%d-%d", int64(q.U1)+1<<32, q.U2),
		fmt.Sprintf("+%d-%d", q.U1, q.U2),
		fmt.Sprintf("0%d-%d", q.U1, q.U2),
		fmt.Sprintf("%d-+%d", q.U1, q.U2),
		fmt.Sprintf("%d-0%d", q.U1, q.U2),
	} {
		if err := s.Deliver(id, oracleLabels(gold, q)); err == nil {
			t.Errorf("non-canonical id %q accepted for question %s", id, batch[0].ID)
		}
	}
	if err := s.Deliver(batch[0].ID, nil); err == nil {
		t.Error("answer without labels accepted")
	}
	last := batch[len(batch)-1]
	if err := s.Deliver(last.ID, oracleLabels(gold, last.Pair)); err != nil {
		t.Fatalf("out-of-order delivery rejected: %v", err)
	}
	if err := s.Deliver(last.ID, oracleLabels(gold, last.Pair)); err == nil {
		t.Error("duplicate answer accepted")
	}
}

// TestDeliverRejectsBadLabels holds the wire path to crowd labels: a
// label from the reserved deduction worker, or with a quality outside
// (0, 1], fails the whole answer with ErrBadLabel before anything is
// applied, journaled or shared — the question stays open and the next
// good answer for it is accepted. Nothing reaches the namespace cache,
// so a later session sees neither an answer nor a deduction fact.
func TestDeliverRejectsBadLabels(t *testing.T) {
	k1, k2, gold := bookWorld(4, 22)
	p := core.Prepare(k1, k2, testConfig(func(c *core.Config) { c.Deduce = true }))
	mgr := NewManager()
	s, err := mgr.Create(p, "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	q := s.NextBatch()[0]
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	good := Label{WorkerID: 0, Quality: 0.9, IsMatch: gold.IsMatch(q.Pair)}
	for _, bad := range []Label{
		{WorkerID: DeducedWorkerID, Quality: 0.999, IsMatch: gold.IsMatch(q.Pair)},
		{WorkerID: 1, Quality: 0, IsMatch: true},
		{WorkerID: 1, Quality: -0.5, IsMatch: true},
		{WorkerID: 1, Quality: 1.5, IsMatch: true},
		{WorkerID: 1, Quality: math.NaN(), IsMatch: true},
	} {
		if err := s.Deliver(q.ID, []Label{good, bad}); !errors.Is(err, ErrBadLabel) {
			t.Errorf("Deliver with label %+v: %v, want ErrBadLabel", bad, err)
		}
	}
	if after, _ := s.Snapshot(); !bytes.Equal(after, before) {
		t.Fatalf("a rejected answer changed the session:\nbefore %s\n after %s", before, after)
	}
	if _, ok := mgr.Cache("books").answer(q.Pair, true); ok {
		t.Fatal("a rejected answer reached the namespace cache")
	}
	if st := mgr.DeduceStats()["books"]; st != (deduce.Stats{}) {
		t.Fatalf("a rejected answer recorded deduction facts: %+v", st)
	}
	if err := s.Deliver(q.ID, []Label{good, {WorkerID: 2, Quality: 1, IsMatch: good.IsMatch}}); err != nil {
		t.Fatalf("good answer after rejections: %v", err)
	}
}

// TestSnapshotRestoreMidRun snapshots a session halfway (with an answer
// buffered out of order), restores it onto a fresh pipeline, finishes both
// and requires byte-identical results — the process-restart scenario.
func TestSnapshotRestoreMidRun(t *testing.T) {
	k1, k2, gold := bookWorld(6, 23)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))

	s := New("job-42", core.Prepare(k1, k2, testConfig(nil)), nil)
	// Answer the first batch fully, then the second batch's last question
	// only, so the snapshot carries both applied and pending answers.
	first := s.NextBatch()
	for _, q := range first {
		if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	second := s.NextBatch()
	if len(second) > 1 {
		last := second[len(second)-1]
		if err := s.Deliver(last.ID, oracleLabels(gold, last.Pair)); err != nil {
			t.Fatal(err)
		}
	}

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) > 1 && len(snap.Pending) == 0 {
		t.Fatal("snapshot lost the buffered out-of-order answer")
	}

	restored, err := Restore(core.Prepare(k1, k2, testConfig(nil)), nil, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ID() != "job-42" {
		t.Errorf("restored id %q", restored.ID())
	}
	gotQ, _ := restored.Progress()
	wantQ, _ := s.Progress()
	if gotQ != wantQ {
		t.Fatalf("restored session at %d questions, want %d", gotQ, wantQ)
	}
	driveShuffled(t, restored, gold, rand.New(rand.NewSource(9)))
	assertResultsIdentical(t, want, restored.Result())
}

// TestRestoreRejectsForeignSnapshot proves divergence detection: a
// snapshot replayed against a different dataset must fail, not silently
// produce garbage.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	k1, k2, gold := bookWorld(5, 24)
	s := New("s1", core.Prepare(k1, k2, testConfig(nil)), nil)
	driveShuffled(t, s, gold, rand.New(rand.NewSource(3)))
	snap := s.snapshot()
	if len(snap.Applied) == 0 {
		t.Fatal("no applied answers to replay")
	}

	o1, o2, _ := bookWorld(3, 99)
	if _, err := Restore(core.Prepare(o1, o2, testConfig(nil)), nil, snap); err == nil {
		t.Fatal("snapshot replayed cleanly against a foreign dataset")
	}
}

// countingOracle hands out oracle answers while counting how many times
// each pair is asked externally — the crowd-side cost.
type countingOracle struct {
	mu    sync.Mutex
	gold  *pair.Gold
	asked map[pair.Pair]int
}

func (o *countingOracle) answer(q pair.Pair) []crowd.Label {
	o.mu.Lock()
	o.asked[q]++
	o.mu.Unlock()
	return oracleLabels(o.gold, q)
}

// TestManagerConcurrentSessionsShareAnswers is the acceptance concurrency
// test: ≥4 sessions over the same dataset run in parallel under -race, the
// shared cache must keep every pair's external answer count at exactly 1,
// and every session must still match the synchronous result exactly.
func TestManagerConcurrentSessionsShareAnswers(t *testing.T) {
	const nSessions = 4
	k1, k2, gold := bookWorld(6, 25)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))

	mgr := NewManager()
	oracle := &countingOracle{gold: gold, asked: map[pair.Pair]int{}}
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		var err error
		sessions[i], err = mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(mgr.IDs()); got != nSessions {
		t.Fatalf("manager tracks %d sessions, want %d", got, nSessions)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for !s.Done() {
				batch := s.NextBatch()
				if len(batch) == 0 {
					// Every open question is in flight in a sibling
					// session; yield and poll again.
					runtime.Gosched()
					continue
				}
				for _, q := range batch {
					if err := s.Deliver(q.ID, oracle.answer(q.Pair)); err != nil {
						errs <- fmt.Errorf("session %s: %w", s.ID(), err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for q, n := range oracle.asked {
		if n != 1 {
			t.Errorf("pair %v answered externally %d times; the cache failed to suppress the duplicate", q, n)
		}
	}
	if len(oracle.asked) != want.Questions {
		t.Errorf("external answers for %d distinct pairs, want %d (one synchronous run's worth)",
			len(oracle.asked), want.Questions)
	}
	hits := mgr.Cache("books").Hits()
	if wantHits := int64((nSessions - 1) * want.Questions); hits != wantHits {
		t.Errorf("cache served %d answers, want %d (%d sibling sessions × %d questions)",
			hits, wantHits, nSessions-1, want.Questions)
	}
	for _, s := range sessions {
		assertResultsIdentical(t, want, s.Result())
	}
}

// TestSessionsShareOnePrepared runs several live sessions of one Manager
// over the same *core.Prepared, answered concurrently in shuffled order,
// and restores a mid-run snapshot of one of them onto that same Prepared
// while the original is still live. Every one of them must match a
// synchronous run over a pipeline of its own. Run with -race: sessions may
// share nothing they write.
func TestSessionsShareOnePrepared(t *testing.T) {
	const nSessions = 4
	k1, k2, gold := bookWorld(6, 28)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(func(c *core.Config) { c.Shards = shards })
			want := core.Prepare(k1, k2, cfg).Run(core.NewOracleAsker(gold.IsMatch))

			p := core.Prepare(k1, k2, cfg)
			mgr := NewManager()
			var sessions []*Session
			for i := 0; i < nSessions; i++ {
				s, err := mgr.Create(p, "books", nil)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, s)
			}
			first := sessions[0]
			for _, q := range first.NextBatch() {
				if err := first.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
					t.Fatal(err)
				}
			}
			snap := first.snapshot()
			if first.Done() || len(snap.Applied) == 0 {
				t.Fatalf("fixture too easy: done=%v with %d applied answers after one batch", first.Done(), len(snap.Applied))
			}
			snap.ID = "restored"
			restored, err := mgr.Restore(p, "books", nil, snap)
			if err != nil {
				t.Fatalf("Restore onto the live session's Prepared: %v", err)
			}
			sessions = append(sessions, restored)

			var wg sync.WaitGroup
			errs := make(chan error, len(sessions))
			for i, s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					for !s.Done() {
						batch := s.NextBatch() // empty while siblings hold every open question
						rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
						for _, q := range batch {
							if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
								errs <- fmt.Errorf("session %s: %w", s.ID(), err)
								return
							}
						}
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, s := range sessions {
				assertResultsIdentical(t, want, s.Result())
			}
		})
	}
}

// TestManagerCreateSkipsRestoredIDs is the ID-collision regression test:
// restoring a snapshot whose ID lands in the counter's path must not be
// clobbered by a later Create.
func TestManagerCreateSkipsRestoredIDs(t *testing.T) {
	k1, k2, _ := bookWorld(4, 27)
	mgr := NewManager()

	donor := New("s2", core.Prepare(k1, k2, testConfig(nil)), nil)
	restored, err := mgr.Restore(core.Prepare(k1, k2, testConfig(nil)), "books", nil, donor.snapshot())
	if err != nil {
		t.Fatal(err)
	}

	a, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == "s2" || b.ID() == "s2" {
		t.Fatalf("Create reused the restored ID: %q, %q", a.ID(), b.ID())
	}
	got, ok := mgr.Get("s2")
	if !ok || got != restored {
		t.Fatal("restored session was clobbered")
	}
	if ids := mgr.IDs(); len(ids) != 3 {
		t.Fatalf("manager tracks %v, want 3 sessions", ids)
	}
}

// TestManagerRemoveReleasesReservations proves an abandoned session cannot
// starve a sibling: its reserved questions become postable again.
func TestManagerRemoveReleasesReservations(t *testing.T) {
	k1, k2, _ := bookWorld(5, 26)
	mgr := NewManager()
	a, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatal(err)
	}

	batchA := a.NextBatch()
	if len(batchA) == 0 {
		t.Fatal("session a has no batch")
	}
	// Identically prepared sessions open the same batch, so b now sees all
	// of its opening questions reserved by a.
	if got := b.NextBatch(); len(got) != 0 {
		t.Fatalf("session b was handed %d questions a already has in flight", len(got))
	}
	if _, _, err := mgr.Remove(a.ID()); err != nil {
		t.Fatal(err)
	}
	if got := b.NextBatch(); len(got) != len(batchA) {
		t.Fatalf("after removing a, session b got %d questions, want %d", len(got), len(batchA))
	}
}

// errRunnerBroken is breakableRunner's failure.
var errRunnerBroken = errors.New("test runner broken")

// breakableRunner is the in-process runner whose Ball fails once broken
// is set, as a remote runner's does once it has lost its cluster.
type breakableRunner struct {
	core.ShardRunner
	broken *atomic.Bool
}

func (r breakableRunner) Ball(s int, q pair.Pair) ([]pair.Pair, error) {
	if r.broken.Load() {
		return nil, errRunnerBroken
	}
	return r.ShardRunner.Ball(s, q)
}

// TestDrainIntoBrokenRunnerFailsTheSession: a sibling's cached answers,
// drained into a session whose runner has broken since, fail the session
// like an answer delivered directly would: NextBatch returns, the state is
// LoopFailed, Deliver reports the runner's error, and the journal holds
// every answer the loop applied before the refused one, and not that one.
func TestDrainIntoBrokenRunnerFailsTheSession(t *testing.T) {
	k1, k2, gold := bookWorld(6, 29)
	var broken atomic.Bool
	p := core.Prepare(k1, k2, testConfig(func(c *core.Config) {
		c.Runner = func(p *core.Prepared) (core.ShardRunner, error) {
			r, err := core.NewLocalRunner(p)
			return breakableRunner{r, &broken}, err
		}
	}))
	store := NewMemStore()
	mgr := NewManagerStore(store)
	sibling, err := mgr.Create(p, "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mgr.Create(p, "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := sibling.NextBatch()
	for _, q := range batch {
		if err := sibling.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	broken.Store(true)

	if got := s.NextBatch(); len(got) != 0 {
		t.Fatalf("a session whose runner failed published %d questions", len(got))
	}
	if st := s.State(); st != core.LoopFailed {
		t.Fatalf("state %s after the runner refused a drained answer, want %s", st, core.LoopFailed)
	}
	if err := s.Deliver(batch[0].ID, oracleLabels(gold, batch[0].Pair)); !errors.Is(err, errRunnerBroken) {
		t.Fatalf("Deliver on the failed session: %v, want the runner's error", err)
	}
	applied := s.snapshot().Applied
	if len(applied) == 0 {
		t.Fatal("fixture too easy: the drain applied nothing")
	}
	rec, err := store.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if want := applied[:len(applied)-1]; len(journaled.Applied) != len(want) || (len(want) > 0 && !reflect.DeepEqual(journaled.Applied, want)) {
		t.Fatalf("journal holds %d answers, want the %d applied before the refused one", len(journaled.Applied), len(want))
	}
}
