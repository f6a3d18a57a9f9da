package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/consistency"
	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// assertResultsIdentical compares every field of two Run results; the
// engine swap must not change a single resolved pair.
func assertResultsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	for _, s := range []struct {
		name string
		x, y pair.Set
	}{
		{"Matches", a.Matches, b.Matches},
		{"Confirmed", a.Confirmed, b.Confirmed},
		{"Propagated", a.Propagated, b.Propagated},
		{"IsolatedPredicted", a.IsolatedPredicted, b.IsolatedPredicted},
		{"NonMatches", a.NonMatches, b.NonMatches},
	} {
		if s.x.Len() != s.y.Len() {
			t.Fatalf("%s size differs: %d vs %d", s.name, s.x.Len(), s.y.Len())
		}
		for _, p := range s.x.Sorted() {
			if !s.y.Has(p) {
				t.Fatalf("%s: %v present in one run only", s.name, p)
			}
		}
	}
	if a.Questions != b.Questions {
		t.Fatalf("Questions differ: %d vs %d", a.Questions, b.Questions)
	}
	if a.Loops != b.Loops {
		t.Fatalf("Loops differ: %d vs %d", a.Loops, b.Loops)
	}
	if a.Deduced != b.Deduced {
		t.Fatalf("Deduced differ: %d vs %d", a.Deduced, b.Deduced)
	}
}

// TestRunIncrementalMatchesFullResync is the incremental machine's
// per-batch oracle: folded statistics, in-place label rewrites and exact
// ball invalidation must leave the loop, at every batch it opens, in the
// state the from-scratch policy (regather and refit everything, rebuild
// every graph and engine) derives from the same history — across
// configuration variants, asker types and shard counts — and the run must
// end where Prepared.Run does. A divergence fails at the batch where it
// appears, even one the final result would not show.
func TestRunIncrementalMatchesFullResync(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"budgeted", func(c *Config) { c.Budget = 12; c.Mu = 3 }},
		{"exhaust", func(c *Config) { c.ExhaustBudget = true; c.Budget = 20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, k2, gold := movieWorld(8, 11)
			cfg := DefaultConfig()
			cfg.Mu = 4
			tc.mod(&cfg)
			p := Prepare(k1, k2, cfg)
			assertResultsIdentical(t, runUnderOracle(t, p, NewOracleAsker(gold.IsMatch)), p.Run(NewOracleAsker(gold.IsMatch)))
		})
	}

	t.Run("noisy-crowd", func(t *testing.T) {
		k1, k2, gold := movieWorld(7, 12)
		p := Prepare(k1, k2, DefaultConfig())
		platform := func() Asker {
			return crowd.NewPlatform(gold.IsMatch, crowd.Config{
				NumWorkers: 20, WorkersPerQuestion: 5, ErrorRate: 0.1, Seed: 6,
			})
		}
		assertResultsIdentical(t, runUnderOracle(t, p, platform()), p.Run(platform()))
	})

	// Deduce × shard count on the clustered graph, whose relation families
	// give shards disjoint labels, under a fallible crowd: wrong
	// confirmations, hard questions and competitor detaches all feed
	// re-estimation here. The hybrid=false segment keeps the subtest names
	// stable across the removal of the loop's partial-order mode.
	ds := datasets.Clustered(24, 10, 7)
	for _, ded := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("hybrid=false/deduce=%v/shards=%d", ded, shards), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Deduce, cfg.Shards = ded, shards
				p := Prepare(ds.K1, ds.K2, cfg)
				if p.NumShards() != shards {
					t.Fatalf("fixture produced %d shards, want %d", p.NumShards(), shards)
				}
				platform := func() Asker {
					return crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{
						NumWorkers: 20, WorkersPerQuestion: 3, ErrorRate: 0.15, Seed: 9,
					})
				}
				res := runUnderOracle(t, p, platform())
				if res.Loops < 2 {
					t.Fatalf("fixture too easy: %d loops, re-estimation never ran", res.Loops)
				}
				assertResultsIdentical(t, res, p.Run(platform()))
			})
		}
	}

	// Graphs from none to all of whose vertices are isolated: what the
	// loop keeps itself must not depend on the engines' recompute policy.
	k1, k2, gold, blk, fixtures := splitFixtures()
	for _, f := range fixtures {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", f.name, shards), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mu, cfg.Shards = 4, shards
				p := f.prepare(t, k1, k2, blk, cfg)
				assertResultsIdentical(t, runUnderOracle(t, p, f.asker(gold)), p.Run(f.asker(gold)))
			})
		}
	}
}

// runUnderOracle drives a new loop over p at its cursor, as Loop.Run does,
// and holds it to checkFromScratch right after NewLoop and after every
// delivery that opens a new batch. It returns the final result.
func runUnderOracle(t *testing.T, p *Prepared, asker Asker) *Result {
	t.Helper()
	l := p.NewLoop()
	batches, shards := 0, 0
	if !l.Done() {
		batches, shards = 1, checkFromScratch(t, l)
	}
	for !l.Done() {
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		batch := l.Batch()
		if len(batch) == 0 {
			t.Fatal("loop awaiting answers with no open question")
		}
		loops := l.res.Loops
		if err := l.Deliver(batch[0], asker.Ask(batch[0])); err != nil {
			t.Fatal(err)
		}
		if !l.Done() && l.res.Loops != loops {
			batches++
			shards += checkFromScratch(t, l)
		}
	}
	t.Logf("checked %d batches, %d shard states", batches, shards)
	return l.Result()
}

// checkFromScratch compares an in-process loop that has just opened a
// batch with the state the from-scratch policy derives from its history:
//
//  1. the estimates, bit for bit, against a refit of every label over the
//     canonical seed set;
//  2. each unsettled shard's edge probabilities, bit for bit, against a
//     fresh BuildProbDense at those estimates with the non-matches
//     detached;
//  3. the engine's retired sources and every live ball against a bulk
//     build over that graph, retiring the resolved vertices, the hard
//     questions and any vertex without an edge;
//  4. the shard's cached candidates and picks against an assembly from
//     those balls and the strategy's ranking of it.
//
// It returns the number of shards it checked.
func checkFromScratch(t *testing.T, l *Loop) int {
	t.Helper()
	p, res := l.p, l.res
	at := fmt.Sprintf("loop %d", res.Loops)

	want := p.fitConsistency(canonicalSeeds(p.Initial, res.Matches), consistency.Fit)
	if len(l.est) != len(want) {
		t.Fatalf("%s: %d estimates, from scratch %d", at, len(l.est), len(want))
	}
	for label, w := range want {
		g, ok := l.est[label]
		if !ok || !sameBits(g.Eps1, w.Eps1) || !sameBits(g.Eps2, w.Eps2) || !sameBits(g.LogLikelihood, w.LogLikelihood) {
			t.Fatalf("%s: est[%v] = %+v, from scratch %+v", at, label, g, w)
		}
	}

	hard := pair.Set{}
	for _, a := range l.history {
		if crowd.Infer(p.Prior(p.Graph.IndexOf(a.Pair)), a.Labels, p.Cfg.Thresholds).Verdict == crowd.Unresolved {
			hard.Add(a.Pair)
		}
	}
	states := l.r.(*localRunner).states
	checked := 0
	for s, sh := range l.shards {
		if sh.settled {
			continue
		}
		checked++
		at := fmt.Sprintf("%s shard %d", at, s)
		st, g := states[s], p.shards[s].graph
		verts := g.Vertices()
		priors := make([]float64, len(verts))
		for li := range verts {
			priors[li] = p.Prior(p.shards[s].globalIdx[li])
		}
		prob := propagation.BuildProbDense(g, priors, l.est)
		eng := propagation.NewEngineObs(prob, p.Cfg.Tau, obs.EngineCounters{})
		for li, v := range verts {
			if res.NonMatches.Has(v) {
				eng.DetachVertex(li)
			}
			if l.resolved(v) || hard.Has(v) || len(g.OutIndexesAt(li))+len(g.InIndexesAt(li)) == 0 {
				eng.Retire(li)
			}
		}
		eng.InvalidateAll() // a bulk build over the final graph, not the incremental path
		eng.Sync()

		gotProbs, wantProbs := st.prob.Probs(), prob.Probs()
		if len(gotProbs) != len(wantProbs) {
			t.Fatalf("%s: %d edge slots, from scratch %d", at, len(gotProbs), len(wantProbs))
		}
		for e := range wantProbs {
			if !sameBits(gotProbs[e], wantProbs[e]) {
				t.Fatalf("%s: edge slot %d = %v, from scratch %v", at, e, gotProbs[e], wantProbs[e])
			}
		}

		var cands []selection.Candidate
		for li, v := range verts {
			if st.eng.Retired(li) != eng.Retired(li) {
				t.Fatalf("%s: vertex %d retired %v, from scratch %v", at, li, st.eng.Retired(li), eng.Retired(li))
			}
			if eng.Retired(li) {
				continue
			}
			gotBall, wantBall := st.eng.Ball(li), eng.Ball(li)
			if len(gotBall) != len(wantBall) {
				t.Fatalf("%s ball %d: %d entries, from scratch %d", at, li, len(gotBall), len(wantBall))
			}
			inf := []int{p.shards[s].globalIdx[li]}
			for k, en := range wantBall {
				if gotBall[k].Idx != en.Idx || !sameBits(gotBall[k].Dist, en.Dist) {
					t.Fatalf("%s ball %d entry %d differs: %+v, from scratch %+v", at, li, k, gotBall[k], en)
				}
				if !l.resolved(verts[en.Idx]) {
					inf = append(inf, p.shards[s].globalIdx[en.Idx])
				}
			}
			cands = append(cands, selection.Candidate{Pair: v, Prob: priors[li], Inferred: inf})
		}

		anyProp := false
		if len(sh.cands) != len(cands) {
			t.Fatalf("%s: %d candidates, from scratch %d", at, len(sh.cands), len(cands))
		}
		for k, c := range cands {
			got := sh.cands[k]
			if got.Pair != c.Pair || !sameBits(got.Prob, c.Prob) || !slices.Equal(got.Inferred, c.Inferred) {
				t.Fatalf("%s candidate %d: %+v, from scratch %+v", at, k, got, c)
			}
			anyProp = anyProp || len(c.Inferred) > 1
		}
		if sh.anyProp != anyProp {
			t.Fatalf("%s: propagation possible %v, from scratch %v", at, sh.anyProp, anyProp)
		}
		picks := []selection.Pick{}
		if len(cands) > 0 {
			picks = p.Cfg.Strategy.SelectRanked(cands, min(p.Cfg.Mu, len(cands)))
		}
		if len(sh.picks) != len(picks) {
			t.Fatalf("%s: %d picks, from scratch %d", at, len(sh.picks), len(picks))
		}
		for k, pk := range picks {
			if sh.picks[k].Index != pk.Index || !sameBits(sh.picks[k].Score, pk.Score) {
				t.Fatalf("%s pick %d: %+v, from scratch %+v", at, k, sh.picks[k], pk)
			}
		}
	}
	return checked
}

// sameBits reports whether two floats are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRunIsDeterministic guards the sorted inferred-index lists: two runs
// of the same configuration must agree exactly (map iteration order used
// to leak into the benefit sums).
func TestRunIsDeterministic(t *testing.T) {
	k1, k2, gold := movieWorld(6, 14)
	run := func() *Result {
		cfg := DefaultConfig()
		p := Prepare(k1, k2, cfg)
		return p.Run(NewOracleAsker(gold.IsMatch))
	}
	assertResultsIdentical(t, run(), run())
}

// TestRunRecomputesOnlyDirtySources counts single-source Dijkstra
// invocations across a whole Run: the incremental engines must pay the
// initial n — one ball per engine vertex, the vertices with an edge — plus
// only the balls dirtied since, whether by an answer or by a
// re-estimation rebuild that rewrote an edge they can see, strictly less
// than the n-per-dirty-loop the historical policy re-ran.
func TestRunRecomputesOnlyDirtySources(t *testing.T) {
	k1, k2, gold := movieWorld(10, 13)
	cfg := DefaultConfig()
	cfg.Mu = 3 // small batches force several loops
	cfg.ClassifyIsolated = false
	p := Prepare(k1, k2, cfg)
	l := p.NewLoop()
	res, err := l.Run(NewOracleAsker(gold.IsMatch))
	if err != nil {
		t.Fatal(err)
	}

	var n int64
	for _, size := range p.ShardSizes() {
		n += int64(size)
	}
	got := l.recomputes
	if res.Loops < 3 {
		t.Fatalf("fixture too easy: only %d loops", res.Loops)
	}
	if got < n {
		t.Fatalf("engine ran %d Dijkstras, fewer than the initial build %d", got, n)
	}
	// The historical policy recomputed all n sources at the top of every
	// loop after the first mutation: n*(1+loops-1) = n*loops at minimum
	// on this fixture (every loop resolves something).
	historical := n * int64(res.Loops)
	if got >= historical {
		t.Fatalf("engine ran %d Dijkstras, not fewer than the historical full-recompute %d (n=%d, loops=%d)",
			got, historical, n, res.Loops)
	}
	t.Logf("recomputes: %d incremental vs %d historical (n=%d, loops=%d)", got, historical, n, res.Loops)
}

// TestPrepareRejectsInvalidTau pins the boundary validation: an explicit
// out-of-range τ must not be silently coerced to 0.9 anymore.
func TestPrepareRejectsInvalidTau(t *testing.T) {
	k1, k2, _ := movieWorld(2, 15)
	for _, tau := range []float64{-0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prepare accepted Tau = %v", tau)
				}
			}()
			cfg := DefaultConfig()
			cfg.Tau = tau
			Prepare(k1, k2, cfg)
		}()
	}
	// Zero still selects the default.
	cfg := DefaultConfig()
	cfg.Tau = 0
	if p := Prepare(k1, k2, cfg); p.Cfg.Tau != 0.9 {
		t.Errorf("zero Tau filled to %v, want 0.9", p.Cfg.Tau)
	}
}

// BenchmarkRunLoop measures a full human–machine loop run on the synthetic
// movie world (graph preparation excluded), the path the incremental
// engine accelerates.
func BenchmarkRunLoop(b *testing.B) {
	k1, k2, gold := movieWorld(12, 1)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := Prepare(k1, k2, cfg)
		asker := NewOracleAsker(gold.IsMatch)
		b.StartTimer()
		_ = p.Run(asker)
	}
}
