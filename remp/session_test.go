package remp_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/remp"
)

// oracleWire answers a question the way NewOracleCrowd would, in wire form.
func oracleWire(gold *remp.Gold, q remp.Pair) []remp.Label {
	return []remp.Label{{WorkerID: 0, Quality: 0.999, IsMatch: gold.IsMatch(q)}}
}

func sameSet(a, b map[remp.Pair]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if _, ok := b[p]; !ok {
			return false
		}
	}
	return true
}

func assertSameResult(t *testing.T, want, got *remp.Result) {
	t.Helper()
	for _, s := range []struct {
		name string
		x, y map[remp.Pair]struct{}
	}{
		{"Matches", want.Matches, got.Matches},
		{"Confirmed", want.Confirmed, got.Confirmed},
		{"Propagated", want.Propagated, got.Propagated},
		{"IsolatedPredicted", want.IsolatedPredicted, got.IsolatedPredicted},
		{"NonMatches", want.NonMatches, got.NonMatches},
	} {
		if !sameSet(s.x, s.y) {
			t.Fatalf("%s differ: want %d pairs, got %d", s.name, len(s.x), len(s.y))
		}
	}
	if want.Questions != got.Questions || want.Deduced != got.Deduced || want.Loops != got.Loops {
		t.Fatalf("Questions/Deduced/Loops differ: want %d/%d/%d, got %d/%d/%d",
			want.Questions, want.Deduced, want.Loops, got.Questions, got.Deduced, got.Loops)
	}
}

// TestSessionEquivalentToResolve drives a public Session with shuffled
// answer delivery and requires the exact Result the synchronous Resolve
// produces on the same dataset and options. The session is fed exactly
// the labels Resolve's asker returned for each pair. A question it
// publishes that the asker was never asked gets no answer: an earlier
// batch-mate's answer must resolve it, so the session deduces it. The
// asker, in turn, is called once per counted question, so none of the
// questions Resolve deduced reached it.
func TestSessionEquivalentToResolve(t *testing.T) {
	tiny, tinyGold := tinyWorld()
	dense, denseGold := denseWorld(16, 23)
	for _, tc := range []struct {
		name  string
		ds    remp.Dataset
		opts  remp.Options
		asker remp.Asker
	}{
		{"oracle", tiny, remp.Options{Mu: 3}, remp.NewOracleCrowd(tinyGold.IsMatch)},
		{"deduce-noisy-budget", dense, remp.Options{Mu: 4, Deduce: true, Budget: 12},
			remp.NewSimulatedCrowd(denseGold.IsMatch, remp.CrowdConfig{ErrorRate: 0.3, Seed: 7})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecordingAsker(tc.asker)
			want, err := remp.Resolve(tc.ds, rec, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.calls) != want.Questions || len(rec.labels) != want.Questions {
				t.Fatalf("the asker was called %d times on %d pairs for %d questions", len(rec.calls), len(rec.labels), want.Questions)
			}
			if tc.opts.Deduce && want.Deduced == 0 {
				t.Fatal("fixture deduced nothing")
			}

			s, err := remp.NewSession(tc.ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			withheld := map[remp.Pair]bool{}
			for !s.Done() {
				if s.State() != remp.SessionAwaiting {
					t.Fatalf("open session in state %q", s.State())
				}
				var batch []remp.Question
				for _, q := range s.NextBatch() {
					if _, asked := rec.labels[q.Pair]; asked {
						batch = append(batch, q)
					} else {
						withheld[q.Pair] = true
					}
				}
				if len(batch) == 0 {
					t.Fatal("open session published no question Resolve asked")
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				for _, q := range batch {
					if err := s.Deliver(q.ID, rec.labels[q.Pair]); err != nil {
						t.Fatalf("Deliver(%s): %v", q.ID, err)
					}
				}
			}
			if s.State() != remp.SessionDone {
				t.Fatalf("finished session in state %q", s.State())
			}
			got := s.Result()
			assertSameResult(t, want, got)
			for q := range withheld {
				_, match := got.Matches[q]
				_, nonMatch := got.NonMatches[q]
				if !match && !nonMatch {
					t.Errorf("the session published %v, which Resolve never asked, and left it unresolved", q)
				}
			}
			if len(withheld) > got.Deduced {
				t.Errorf("%d published questions went unanswered, but the session deduced %d", len(withheld), got.Deduced)
			}
		})
	}
}

// TestSessionSnapshotRoundTrip snapshots after the first batch, restores
// on a fresh pipeline, and requires the restored session to converge to
// the synchronous result.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	ds, gold := tinyWorld()
	opts := remp.Options{Mu: 2}
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts)
	if err != nil {
		t.Fatal(err)
	}

	s, err := remp.NewSession(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.NextBatch() {
		if err := s.Deliver(q.ID, oracleWire(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := remp.RestoreSession(ds, opts, snap)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	q0, l0 := s.Progress()
	q1, l1 := restored.Progress()
	if q0 != q1 || l0 != l1 {
		t.Fatalf("restored progress %d/%d, want %d/%d", q1, l1, q0, l0)
	}
	for !restored.Done() {
		for _, q := range restored.NextBatch() {
			if err := restored.Deliver(q.ID, oracleWire(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSameResult(t, want, restored.Result())
}

// TestOptionsValidation pins the boundary checks: negative tunables must
// be rejected with errors naming the offending field, not silently
// replaced by defaults.
func TestOptionsValidation(t *testing.T) {
	ds, gold := tinyWorld()
	cases := []struct {
		field string
		opts  remp.Options
	}{
		{"K", remp.Options{K: -1}},
		{"Mu", remp.Options{Mu: -4}},
		{"Budget", remp.Options{Budget: -10}},
		{"MaxLoops", remp.Options{MaxLoops: -2}},
		{"LabelSimThreshold", remp.Options{LabelSimThreshold: -0.5}},
		{"LabelSimThreshold", remp.Options{LabelSimThreshold: 1.5}},
	}
	for _, tc := range cases {
		_, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), tc.opts)
		if err == nil {
			t.Errorf("Options%+v accepted; want an error naming %s", tc.opts, tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Options%+v: error %q does not name %s", tc.opts, err, tc.field)
		}
		if _, err := remp.NewSession(ds, tc.opts); err == nil {
			t.Errorf("NewSession accepted Options%+v", tc.opts)
		}
	}
	// Zero values still select the defaults.
	if _, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), remp.Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// TestOpenManagerRecovers is the library-level restart: a managed session
// journaled into a disk store is abandoned after one batch, and a second
// manager opened over the same directory recovers it through the reopen
// function — under its ID, with its meta — and finishes as Resolve does.
func TestOpenManagerRecovers(t *testing.T) {
	ds, gold := tinyWorld()
	opts := remp.Options{Mu: 3}
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := remp.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := remp.OpenManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mgr.NewSession(ds, opts, "tiny", []byte("the spec"))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.NextBatch() {
		if err := s.Deliver(q.ID, oracleWire(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Done() {
		t.Fatal("fixture finished in one batch; nothing left to recover into")
	}

	store2, err := remp.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2, ids, err := remp.OpenManager(store2, func(id string, meta []byte) (remp.Dataset, remp.Options, string, error) {
		if id != s.ID() || string(meta) != "the spec" {
			t.Errorf("reopen(%q, %q), want the session's id and meta", id, meta)
		}
		return ds, opts, "tiny", nil
	})
	if err != nil || len(ids) != 1 || ids[0] != s.ID() {
		t.Fatalf("recovered %v (%v), want [%s]", ids, err, s.ID())
	}
	defer mgr2.Close()
	got, ok := mgr2.Get(s.ID())
	if !ok {
		t.Fatal("the recovered session is not registered")
	}
	for !got.Done() {
		for _, q := range got.NextBatch() {
			if err := got.Deliver(q.ID, oracleWire(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSameResult(t, want, got.Result())
}
