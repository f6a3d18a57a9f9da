package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/crowd"
	"repro/internal/pair"
	"repro/internal/selection"
)

// TestShardedRunMatchesUnsharded is the sharding equivalence guarantee at
// the core level: for every shard count, configuration variant and asker
// type, the sharded machine must resolve exactly the pairs the monolithic
// one does, with the same question count and loop count.
func TestShardedRunMatchesUnsharded(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"no-reestimate", func(c *Config) { c.Reestimate = false }},
		{"hybrid", func(c *Config) { c.Hybrid = true }},
		{"budgeted", func(c *Config) { c.Budget = 12; c.Mu = 3 }},
		{"exhaust", func(c *Config) { c.ExhaustBudget = true; c.Budget = 20 }},
		{"maxinf", func(c *Config) { c.Strategy = selection.MaxInf{} }},
		{"maxpr", func(c *Config) { c.Strategy = selection.MaxPr{} }},
		{"no-classifier", func(c *Config) { c.ClassifyIsolated = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, k2, gold := movieWorld(8, 21)
			run := func(shards int) *Result {
				cfg := DefaultConfig()
				cfg.Mu = 4
				tc.mod(&cfg)
				cfg.Shards = shards
				p := Prepare(k1, k2, cfg)
				if shards > 1 && p.NumShards() < 2 {
					t.Fatalf("fixture produced %d shards, want ≥ 2", p.NumShards())
				}
				return p.Run(NewOracleAsker(gold.IsMatch))
			}
			ref := run(1)
			for _, shards := range []int{2, 3, 8} {
				assertResultsIdentical(t, ref, run(shards))
			}
		})
	}
}

// TestShardedRunMatchesUnshardedNoisyCrowd repeats the equivalence check
// with a fallible simulated crowd: inference verdicts, hard-question
// damping and non-match detaches must all shard identically. The platform
// caches labels per pair, so both runs see the same answers.
func TestShardedRunMatchesUnshardedNoisyCrowd(t *testing.T) {
	k1, k2, gold := movieWorld(7, 22)
	run := func(shards int) *Result {
		cfg := DefaultConfig()
		cfg.Shards = shards
		p := Prepare(k1, k2, cfg)
		platform := crowd.NewPlatform(gold.IsMatch, crowd.Config{
			NumWorkers: 20, WorkersPerQuestion: 5, ErrorRate: 0.1, Seed: 6,
		})
		return p.Run(platform)
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		assertResultsIdentical(t, ref, run(shards))
	}
}

// TestShardedRunDeterministic pins run-to-run determinism of the sharded
// machine: concurrent per-shard sync, gathering and selection must not
// leak scheduling order into the result.
func TestShardedRunDeterministic(t *testing.T) {
	k1, k2, gold := movieWorld(6, 23)
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Shards = 4
		p := Prepare(k1, k2, cfg)
		return p.Run(NewOracleAsker(gold.IsMatch))
	}
	assertResultsIdentical(t, run(), run())
}

// TestShardedLoopSettlesShards exercises the freeze path: once every
// vertex of a shard is resolved its engine is released, and the loop
// still finishes with the right result.
func TestShardedLoopSettlesShards(t *testing.T) {
	k1, k2, gold := movieWorld(8, 24)
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.Mu = 2 // small batches force many loops, so shards settle mid-run
	p := Prepare(k1, k2, cfg)
	if p.NumShards() < 2 {
		t.Fatalf("fixture produced %d shards", p.NumShards())
	}
	l := p.NewLoop()
	states := l.r.(*localRunner).states
	settledSeen := false
	for !l.Done() {
		for s, sh := range l.shards {
			if sh.settled {
				settledSeen = true
				if states[s].eng != nil {
					t.Fatal("settled shard kept its engine alive")
				}
			}
		}
		for _, q := range l.Batch() {
			if err := l.Deliver(q, NewOracleAsker(gold.IsMatch).Ask(q)); err != nil {
				t.Fatal(err)
			}
			if l.Done() {
				break
			}
		}
	}
	if !settledSeen {
		t.Log("no shard settled mid-run on this fixture (all resolved in the final loop)")
	}
	cfg1 := DefaultConfig()
	cfg1.Mu = 2
	cfg1.Shards = 1
	ref := Prepare(k1, k2, cfg1).Run(NewOracleAsker(gold.IsMatch))
	assertResultsIdentical(t, ref, l.Result())
}

// TestResolveShardCount pins the auto-sharding policy boundaries.
func TestResolveShardCount(t *testing.T) {
	cases := []struct {
		requested, vertices, want int
	}{
		{1, 10_000, 1},                   // explicit off
		{0, autoShardMinVertices - 1, 1}, // auto below threshold
		{0, 8 * autoShardVerticesPerShard, 8},
		{0, 1_000_000, maxAutoShards},
		{4, 100, 4},   // explicit honored
		{200, 50, 50}, // capped at vertex count
		{3, 0, 1},     // empty graph
	}
	for _, tc := range cases {
		if got := resolveShardCount(tc.requested, tc.vertices); got != tc.want {
			t.Errorf("resolveShardCount(%d, %d) = %d, want %d", tc.requested, tc.vertices, got, tc.want)
		}
	}
}

// TestShardsValidation pins the boundary error for a negative shard count.
func TestShardsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// TestBatchesIdenticalAcrossShardCounts pins the one selection path: under
// each strategy a 1-shard loop (a trivial merge, so the strategy run over
// the whole candidate list) and a 4-shard loop (rank per shard, merge by
// score) draw the same questions in the same order, batch after batch.
func TestBatchesIdenticalAcrossShardCounts(t *testing.T) {
	k1, k2, gold := movieWorld(8, 21)
	for _, strategy := range []selection.Strategy{selection.Greedy{}, selection.MaxInf{}, selection.MaxPr{}} {
		batches := func(shards int) [][]pair.Pair {
			cfg := DefaultConfig()
			cfg.Mu = 4
			cfg.Strategy = strategy
			cfg.Shards = shards
			p := Prepare(k1, k2, cfg)
			if shards > 1 && p.NumShards() < 2 {
				t.Fatalf("fixture produced %d shards, want ≥ 2", p.NumShards())
			}
			asker := NewOracleAsker(gold.IsMatch)
			var out [][]pair.Pair
			for l := p.NewLoop(); !l.Done(); {
				batch := slices.Clone(l.Batch())
				out = append(out, batch)
				for _, q := range batch {
					if err := l.Deliver(q, asker.Ask(q)); err != nil {
						t.Fatal(err)
					}
				}
			}
			return out
		}
		one, four := batches(1), batches(4)
		if len(one) < 2 {
			t.Fatalf("%T: %d batches, want a multi-loop run", strategy, len(one))
		}
		if !reflect.DeepEqual(one, four) {
			t.Errorf("%T: batches differ\n 1 shard:  %v\n 4 shards: %v", strategy, one, four)
		}
	}
}
