package session

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pair"
)

// answerBatch delivers oracle labels for every question s publishes now
// and reports whether there was any.
func answerBatch(t *testing.T, s *Session, gold *pair.Gold) bool {
	t.Helper()
	batch := s.NextBatch()
	for _, q := range batch {
		if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	return len(batch) > 0
}

// finishAll drives sessions sharing one namespace to completion, round
// robin: a session whose open questions a sibling holds publishes
// nothing until the sibling's answers reach the cache.
func finishAll(t *testing.T, gold *pair.Gold, sessions ...*Session) {
	t.Helper()
	for progress := true; progress; {
		progress = false
		for _, s := range sessions {
			progress = answerBatch(t, s, gold) || progress
		}
	}
	for _, s := range sessions {
		if !s.Done() {
			t.Fatalf("session %s stalled", s.ID())
		}
	}
}

// crashScript drives one deterministic persisted workload against a
// DiskStore whose failpoint hook is under test control. Three sessions
// share a namespace so every shape of durable write occurs: session a is
// created empty and answered by the crowd; b is created after a's first
// batch, so its create record carries initial answers, and finishes on
// answers drained from the cache; c is created last and finishes inside
// Create. Journal failures are fail-stop by design, so the script always
// runs to the in-memory end; what the crash varies is how much of it
// reached disk.
func crashScript(t *testing.T, st *DiskStore) {
	t.Helper()
	k1, k2, gold := bookWorld(8, 41)
	mgr := NewManagerStore(st)
	create := func() *Session {
		s, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", []byte("crash-meta"))
		if err != nil {
			return nil // the crash landed inside Create; nothing was registered
		}
		return s
	}
	a := create()
	if a == nil {
		return
	}
	answerBatch(t, a, gold)
	b := create()
	finishAll(t, gold, a)
	if b != nil {
		finishAll(t, gold, b)
	}
	if c := create(); c != nil && !c.Done() {
		t.Fatal("a session created over a fully answered namespace did not finish inside Create")
	}
}

// countCrashOps runs the script with a counting hook and returns how
// many write boundaries it crosses.
func countCrashOps(t *testing.T) int {
	t.Helper()
	st, err := NewDiskStore(filepath.Join(t.TempDir(), "count"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	st.failpoint = func(string) error { n++; return nil }
	crashScript(t, st)
	if n == 0 {
		t.Fatal("the workload crossed no write boundaries; the matrix is vacuous")
	}
	return n
}

// recoverAll reopens dir as a fresh process would and recovers every
// stored session.
func recoverAll(t *testing.T, dir string, prepare func(id string, meta []byte) (*core.Prepared, string, error)) (*Manager, []*Session) {
	t.Helper()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerStore(st)
	t.Cleanup(func() { mgr.Close() })
	ids, err := mgr.Recover(prepare)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	var out []*Session
	for _, id := range ids {
		s, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("recovered session %s not registered", id)
		}
		out = append(out, s)
	}
	return mgr, out
}

// TestDiskStoreCrashMatrix kills the store at every write boundary of
// the workload — the first failing op and everything after it fail, as
// they would when the process dies there; append boundaries are killed
// with a torn half-written line, which on a session's final append tears
// the done marker. The directory is then recovered, abandoned at once
// (the second kill: whatever the first recovery drained in at the cache
// join must already be in the logs), recovered again and finished: every
// session must replay cleanly and end with the Result of the synchronous
// oracle run. A last recovery must find them all done.
func TestDiskStoreCrashMatrix(t *testing.T) {
	k1, k2, gold := bookWorld(8, 41)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))
	prepare := func(id string, meta []byte) (*core.Prepared, string, error) {
		if string(meta) != "crash-meta" {
			return nil, "", fmt.Errorf("recovered meta %q", meta)
		}
		return core.Prepare(k1, k2, testConfig(nil)), "books", nil
	}
	total := countCrashOps(t)
	t.Logf("workload crosses %d write boundaries", total)

	for k := 0; k < total; k++ {
		t.Run(fmt.Sprintf("kill-at-op-%02d", k), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			st, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			var killedOp string
			st.failpoint = func(op string) error {
				n++
				if n <= k {
					return nil
				}
				if killedOp == "" {
					killedOp = op
					if op == "append.write" {
						return errTornWrite
					}
				}
				return fmt.Errorf("crashed at boundary %d (%s)", k, op)
			}
			crashScript(t, st)
			st.Close()
			t.Logf("killed at %s", killedOp)

			_, first := recoverAll(t, dir, prepare)
			_, sessions := recoverAll(t, dir, prepare)
			if len(sessions) != len(first) {
				t.Fatalf("second recovery found %d sessions, the first %d", len(sessions), len(first))
			}
			// Zero sessions is correct when the crash predates the first
			// acknowledged Create: that session was never durable.
			finishAll(t, gold, sessions...)
			for _, s := range sessions {
				assertResultsIdentical(t, want, s.Result())
				if err := s.PersistErr(); err != nil {
					t.Fatal(err)
				}
			}
			_, final := recoverAll(t, dir, prepare)
			if len(final) != len(sessions) {
				t.Fatalf("final recovery found %d sessions, want %d", len(final), len(sessions))
			}
			for _, s := range final {
				if !s.Done() {
					t.Fatalf("finished session %s recovered un-done", s.ID())
				}
				assertResultsIdentical(t, want, s.Result())
			}
		})
	}
}

// TestRecoverTwiceAfterJoinDrain: a session whose recovery drained a
// sibling's answers at the cache join has those answers in its own log
// before anything else is appended — the journal is attached before the
// join. Were it attached after, the next answer's sequence number would
// leave a gap and the second recovery would refuse the log.
func TestRecoverTwiceAfterJoinDrain(t *testing.T) {
	k1, k2, gold := bookWorld(8, 43)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))
	prepare := func(string, []byte) (*core.Prepared, string, error) {
		return core.Prepare(k1, k2, testConfig(nil)), "books", nil
	}
	dir := filepath.Join(t.TempDir(), "data")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerStore(st)
	var created [2]*Session
	for i := range created {
		if created[i], err = mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Only the first session hears from the crowd before the kill; the
	// second has not even looked at the cache.
	answerBatch(t, created[0], gold)
	st.Close()

	mgr2, sessions := recoverAll(t, dir, prepare)
	if len(sessions) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(sessions))
	}
	b := sessions[1]
	if q, _ := b.Progress(); q == 0 {
		t.Fatal("the second session drained nothing at the cache join; the drill is vacuous")
	}
	if !answerBatch(t, b, gold) {
		t.Fatal("the second session published nothing after its recovery")
	}
	if err := b.PersistErr(); err != nil {
		t.Fatal(err)
	}
	mgr2.Close()

	_, sessions = recoverAll(t, dir, prepare)
	if len(sessions) != 2 {
		t.Fatalf("second recovery found %d sessions, want 2", len(sessions))
	}
	finishAll(t, gold, sessions...)
	for _, s := range sessions {
		assertResultsIdentical(t, want, s.Result())
	}
}

// TestRecoveryDivergenceChecks: a stored record that claims more than
// its replay delivers is refused, and stays in the store for an operator
// to inspect or delete. A log closed by a done marker whose answers do
// not finish the loop, and a create record whose shard fingerprint does
// not match the re-prepared pipeline, both fail recovery.
func TestRecoveryDivergenceChecks(t *testing.T) {
	k1, k2, gold := bookWorld(8, 47)
	cfg := testConfig(func(c *core.Config) { c.Shards = 4 })
	st := NewMemStore()
	mgr := NewManagerStore(st)
	s, err := mgr.Create(core.Prepare(k1, k2, cfg), "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() < 2 {
		t.Fatal("fixture did not shard; the fingerprint check is vacuous")
	}
	answerBatch(t, s, gold)
	if s.Done() {
		t.Fatal("fixture finished in one batch")
	}
	recoverWith := func(c core.Config) error {
		_, err := NewManagerStore(st).Recover(func(string, []byte) (*core.Prepared, string, error) {
			return core.Prepare(k1, k2, c), "books", nil
		})
		return err
	}
	if err := recoverWith(cfg); err != nil {
		t.Fatalf("the intact record must recover: %v", err)
	}
	if err := recoverWith(testConfig(func(c *core.Config) { c.Shards = 1 })); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("recovery over a differently sharded pipeline: %v, want a shard-count error", err)
	}
	st.recs[s.ID()].Done = true
	if err := recoverWith(cfg); err == nil || !strings.Contains(err.Error(), "snapshot is done") {
		t.Fatalf("recovery of a done-marked log that does not finish the loop: %v, want a divergence error", err)
	}
	if ids, _ := st.List(); len(ids) != 1 {
		t.Fatalf("the refused record left the store: %v", ids)
	}
}

// TestDiskStoreFsyncBudget counts the *.sync failpoint boundaries — each
// one is an fsync — of the benchmark's own session shape: d-y over 4
// shards with a budget of 40, created, answered 40 times and deleted.
// Only the 40 answer fsyncs protect a paid crowd answer; the rest is
// overhead, bounded here. A session that finishes inside Create pays for
// its create record alone however many answers it drained, and recovery
// writes nothing before the recovered session's next delivery.
func TestDiskStoreFsyncBudget(t *testing.T) {
	ds, err := datasets.ByName("d-y", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards, cfg.Budget = 4, 40
	dir := filepath.Join(t.TempDir(), "data")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	syncs, writes := 0, 0
	hook := func(op string) error {
		writes++
		if strings.HasSuffix(op, "sync") {
			syncs++
		}
		return nil
	}
	st.failpoint = hook
	mgr := NewManagerStore(st)
	p := core.Prepare(ds.K1, ds.K2, cfg)
	a, err := mgr.Create(p, "d-y", nil)
	if err != nil {
		t.Fatal(err)
	}
	finishAll(t, ds.Gold, a)
	if q, _ := a.Progress(); q != 40 {
		t.Fatalf("the session asked %d questions, want the budget of 40", q)
	}
	if _, ok, err := mgr.Remove(a.ID()); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	t.Logf("create, 40 answers, delete: %d fsyncs", syncs)
	if syncs > 45 {
		t.Errorf("create, 40 answers, delete cost %d fsyncs, want at most 45 (40 of them protect an answer)", syncs)
	}

	// The namespace cache outlives the removed session and answers a
	// sibling's every question before its Create returns.
	syncs = 0
	b, err := mgr.Create(p, "d-y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := b.Progress(); !b.Done() || q != 40 {
		t.Fatalf("the sibling drained %d answers inside Create (done=%v), want all 40", q, b.Done())
	}
	if syncs > 3 {
		t.Errorf("a session finishing inside Create cost %d fsyncs, want at most 3", syncs)
	}
	if _, ok, err := mgr.Remove(b.ID()); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}

	// Recovery reads; it does not write.
	c, err := mgr.Create(p, "d-y-recover", nil)
	if err != nil {
		t.Fatal(err)
	}
	answerBatch(t, c, ds.Gold)
	st.Close()
	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writes = 0
	st2.failpoint = hook
	mgr2 := NewManagerStore(st2)
	defer mgr2.Close()
	ids, err := mgr2.Recover(func(string, []byte) (*core.Prepared, string, error) { return p, "d-y-recover", nil })
	if err != nil || len(ids) != 1 {
		t.Fatalf("Recover = %v, %v", ids, err)
	}
	if writes != 0 {
		t.Errorf("recovery crossed %d write boundaries before any delivery, want 0", writes)
	}
	r, _ := mgr2.Get(ids[0])
	if !answerBatch(t, r, ds.Gold) || writes == 0 {
		t.Fatalf("the recovered session's next deliveries were not journaled (%d write boundaries)", writes)
	}
}
