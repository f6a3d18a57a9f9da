package core

import (
	"fmt"
	"testing"

	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
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

// TestRunIncrementalMatchesFullResync is the incremental-machine regression
// test: folded statistics, in-place label rewrites and exact ball
// invalidation must produce results identical to the from-scratch policy
// (regather and refit everything, rebuild every graph and engine at every
// loop) across configuration variants, asker types and shard counts.
func TestRunIncrementalMatchesFullResync(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"no-reestimate", func(c *Config) { c.Reestimate = false }},
		{"hybrid", func(c *Config) { c.Hybrid = true }},
		{"budgeted", func(c *Config) { c.Budget = 12; c.Mu = 3 }},
		{"exhaust", func(c *Config) { c.ExhaustBudget = true; c.Budget = 20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, k2, gold := movieWorld(8, 11)
			run := func(fullResync bool) *Result {
				cfg := DefaultConfig()
				cfg.Mu = 4
				tc.mod(&cfg)
				cfg.debugFullResync = fullResync
				p := Prepare(k1, k2, cfg)
				return p.Run(NewOracleAsker(gold.IsMatch))
			}
			assertResultsIdentical(t, run(false), run(true))
		})
	}

	t.Run("noisy-crowd", func(t *testing.T) {
		k1, k2, gold := movieWorld(7, 12)
		run := func(fullResync bool) *Result {
			cfg := DefaultConfig()
			cfg.debugFullResync = fullResync
			p := Prepare(k1, k2, cfg)
			platform := crowd.NewPlatform(gold.IsMatch, crowd.Config{
				NumWorkers: 20, WorkersPerQuestion: 5, ErrorRate: 0.1, Seed: 6,
			})
			return p.Run(platform)
		}
		assertResultsIdentical(t, run(false), run(true))
	})

	// Hybrid × Deduce × shard count on the clustered graph, whose relation
	// families give shards disjoint labels, under a fallible crowd: wrong
	// confirmations, hard questions and competitor detaches all feed
	// re-estimation here.
	ds := datasets.Clustered(24, 10, 7)
	for _, hybrid := range []bool{false, true} {
		for _, ded := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("hybrid=%v/deduce=%v/shards=%d", hybrid, ded, shards), func(t *testing.T) {
					run := func(fullResync bool) *Result {
						cfg := DefaultConfig()
						cfg.Hybrid, cfg.Deduce, cfg.Shards = hybrid, ded, shards
						cfg.debugFullResync = fullResync
						p := Prepare(ds.K1, ds.K2, cfg)
						if p.NumShards() != shards {
							t.Fatalf("fixture produced %d shards, want %d", p.NumShards(), shards)
						}
						platform := crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{
							NumWorkers: 20, WorkersPerQuestion: 3, ErrorRate: 0.15, Seed: 9,
						})
						return p.Run(platform)
					}
					res := run(false)
					if res.Loops < 2 {
						t.Fatalf("fixture too easy: %d loops, re-estimation never ran", res.Loops)
					}
					assertResultsIdentical(t, res, run(true))
				})
			}
		}
	}

	// Graphs from none to all of whose vertices are isolated: what the
	// loop keeps itself must not depend on the engines' recompute policy.
	k1, k2, gold, blk, fixtures := splitFixtures()
	for _, f := range fixtures {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", f.name, shards), func(t *testing.T) {
				run := func(fullResync bool) *Result {
					cfg := DefaultConfig()
					cfg.Mu, cfg.Shards = 4, shards
					cfg.debugFullResync = fullResync
					return f.prepare(t, k1, k2, blk, cfg).Run(f.asker(gold))
				}
				assertResultsIdentical(t, run(false), run(true))
			})
		}
	}
}

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
// invocations across a whole Run: with re-estimation off (no full
// rebuilds), the incremental engines must pay the initial n — one ball per
// engine vertex, the vertices with an edge — plus only the dirtied balls,
// strictly less than the n-per-dirty-loop the historical policy re-ran.
func TestRunRecomputesOnlyDirtySources(t *testing.T) {
	k1, k2, gold := movieWorld(10, 13)
	cfg := DefaultConfig()
	cfg.Mu = 3 // small batches force several loops
	cfg.Reestimate = false
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
