package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/crowd"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/partition"
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

// fickleCrowd is an inconsistent crowd whose answer is a pure function of
// the pair: one pair in five gets two equally good workers who disagree
// (the posterior stays at the prior — a hard question wherever the prior
// is short of the accept threshold), one in five the wrong verdict from a
// sure worker, the rest the right one.
type fickleCrowd struct {
	gold  *pair.Gold
	asked int
}

func (f *fickleCrowd) Ask(q pair.Pair) []crowd.Label {
	f.asked++
	switch (int(q.U1)*31 + int(q.U2)) % 5 {
	case 0:
		return []crowd.Label{
			{WorkerID: 1, Quality: 0.75, IsMatch: true},
			{WorkerID: 2, Quality: 0.75, IsMatch: false},
		}
	case 1:
		return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: !f.gold.IsMatch(q)}}
	}
	return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: f.gold.IsMatch(q)}}
}

func (f *fickleCrowd) NumQuestions() int { return f.asked }

// splitFixture is one retained set over the movie world, chosen for the
// share of its ER graph's vertices that are isolated, with the
// configuration and crowd its loops run under.
type splitFixture struct {
	name     string
	retained []pair.Pair
	minShare float64 // of isolated vertices, inclusive bounds
	maxShare float64
	mod      func(*Config)
	fickle   bool
}

// splitFixtures returns graphs that are 0 %, about half and 100 % isolated
// (the last twice: with Deduce on, and off). The all-isolated
// ones run past the stop criterion — nothing propagates there — to a budget,
// under the fickle crowd and an accept threshold no prior reaches alone, so
// hard questions, wrong verdicts and competitor cascades all land on
// vertices no engine holds.
func splitFixtures() (k1, k2 *kb.KB, gold *pair.Gold, blk *blocking.Result, fixtures []splitFixture) {
	k1, k2, gold = movieWorldLoners(8, 400, 21)
	base := Prepare(k1, k2, DefaultConfig())
	var connected, isolated []pair.Pair
	for i, v := range base.Graph.Vertices() {
		if base.home[i] < 0 {
			isolated = append(isolated, v)
		} else {
			connected = append(connected, v)
		}
	}
	exhaust := func(on bool) func(*Config) {
		return func(c *Config) {
			c.ExhaustBudget, c.Budget = true, 120
			c.Thresholds = crowd.Thresholds{Accept: 0.995, Reject: 0.2}
			c.Deduce = on
		}
	}
	return k1, k2, gold, testBlocking(k1, k2), []splitFixture{
		{name: "isolated=0%", retained: connected, mod: func(*Config) {}},
		{name: "isolated=50%", retained: base.Retained, minShare: 0.4, maxShare: 0.6, mod: func(*Config) {}},
		{name: "isolated=100%/deduce", retained: isolated, minShare: 1, maxShare: 1, mod: exhaust(true), fickle: true},
		{name: "isolated=100%", retained: isolated, minShare: 1, maxShare: 1, mod: exhaust(false), fickle: true},
	}
}

// prepare builds the fixture's pipeline and checks the graph is what the
// fixture's name says, split the one way at every shard count: each engine
// shard is its partition part exactly, under a global index per vertex, and
// holds no vertex without an edge.
func (f splitFixture) prepare(t *testing.T, k1, k2 *kb.KB, blk *blocking.Result, cfg Config) *Prepared {
	t.Helper()
	f.mod(&cfg)
	p := PrepareOnRetained(k1, k2, cfg, f.retained, blk)
	share := float64(len(p.isolated)) / float64(p.Graph.NumVertices())
	if share < f.minShare || share > f.maxShare {
		t.Fatalf("%s: %d of %d vertices are isolated", f.name, len(p.isolated), p.Graph.NumVertices())
	}
	if cfg.Shards > 1 && share < 1 && p.NumShards() < 2 {
		t.Fatalf("%s: fixture produced %d shards, want ≥ 2", f.name, p.NumShards())
	}
	engine := 0
	for _, n := range p.ShardSizes() {
		engine += n
	}
	if engine+len(p.isolated) != p.Graph.NumVertices() {
		t.Fatalf("%s: %d shard vertices + %d isolated ≠ %d graph vertices", f.name, engine, len(p.isolated), p.Graph.NumVertices())
	}
	// The partition of the vertices with an edge, as Prepare makes it, by
	// pair: each engine shard must be its part.
	var connected []int32
	local := make([]int32, p.Graph.NumVertices())
	for i := range local {
		if len(p.Graph.OutIndexesAt(i)) > 0 || len(p.Graph.InIndexesAt(i)) > 0 {
			local[i] = int32(len(connected))
			connected = append(connected, int32(i))
		}
	}
	pairs := make([]pair.Pair, len(connected))
	for i, gi := range connected {
		pairs[i] = p.Graph.Vertices()[gi]
	}
	part := partition.Split(pairs, func(i int) []int32 {
		var row []int32
		for _, gj := range p.Graph.OutIndexesAt(int(connected[i])) {
			row = append(row, local[gj])
		}
		return row
	}, resolveShardCount(p.Cfg.Shards, len(connected)))
	if part.NumShards() != p.NumShards() || part.NumComponents() != p.NumComponents() {
		t.Fatalf("%s: %d shards over %d components, the partition makes %d over %d", f.name, p.NumShards(), p.NumComponents(), part.NumShards(), part.NumComponents())
	}
	for s := 0; s < p.NumShards(); s++ {
		g := p.Shard(s).graph
		if !slices.Equal(g.Vertices(), part.Shard(s)) || len(p.Shard(s).globalIdx) != g.NumVertices() {
			t.Fatalf("%s: shard %d holds %d vertices under %d global indexes, its partition part %d", f.name, s, g.NumVertices(), len(p.Shard(s).globalIdx), len(part.Shard(s)))
		}
		if iso := g.Isolated(); len(iso) > 0 {
			t.Fatalf("%s: shard %d holds %d vertices without an edge, %v first", f.name, s, len(iso), iso[0])
		}
	}
	return p
}

func (f splitFixture) asker(gold *pair.Gold) Asker {
	if f.fickle {
		return &fickleCrowd{gold: gold}
	}
	return NewOracleAsker(gold.IsMatch)
}

// oracleBatch selects the loop's open batch the long way: every candidate —
// each unsettled shard's latest gather and every live isolated vertex — in
// one list in global vertex order, the strategy run over that list from
// scratch, the selection padded to µ and, under Deduce, ordered by closure
// gain. It is the definition the loop's per-shard ranks, one-time isolated
// ranking and score merge must reproduce. Call it before any answer of the
// open batch is delivered.
func oracleBatch(l *Loop) []pair.Pair {
	cfg := l.p.Cfg
	var all []selection.Candidate
	for _, sh := range l.shards {
		if !sh.settled {
			all = append(all, sh.cands...)
		}
	}
	for i, dead := range l.isoDead {
		if !dead {
			all = append(all, l.p.singleton(i))
		}
	}
	slices.SortFunc(all, func(a, b selection.Candidate) int { return a.Inferred[0] - b.Inferred[0] })
	mu := cfg.Mu
	if cfg.Budget > 0 {
		mu = min(mu, cfg.Budget-l.res.Questions)
	}
	var chosen []selection.Candidate
	for _, pk := range cfg.Strategy.SelectRanked(all, mu) {
		chosen = append(chosen, all[pk.Index])
	}
	if len(chosen) < mu {
		chosen = padBatch(all, chosen, mu)
	}
	if cfg.Deduce {
		chosen = selection.OrderByClosureGain(chosen)
	}
	out := make([]pair.Pair, len(chosen))
	for i, c := range chosen {
		out[i] = c.Pair
	}
	return out
}

// TestBatchesIdenticalAcrossShardCounts pins the one selection path: under
// each strategy a 1-shard loop (one engine over every vertex with an edge,
// ranked as one list) and 2-, 4- and 7-shard loops (rank per shard, merge
// by score) draw the same questions in the same order,
// batch after batch — on graphs from none to all of whose vertices are
// isolated, the ones the loop ranks once and draws through a cursor. Every
// batch is also checked against oracleBatch.
func TestBatchesIdenticalAcrossShardCounts(t *testing.T) {
	k1, k2, gold, blk, fixtures := splitFixtures()
	for _, f := range fixtures {
		for _, strategy := range []selection.Strategy{selection.Greedy{}, selection.MaxInf{}, selection.MaxPr{}} {
			name := fmt.Sprintf("%s/%T", f.name, strategy)
			batches := func(shards int) ([][]pair.Pair, *Loop) {
				cfg := DefaultConfig()
				cfg.Mu = 4
				cfg.Strategy = strategy
				cfg.Shards = shards
				l := f.prepare(t, k1, k2, blk, cfg).NewLoop()
				asker := f.asker(gold)
				var out [][]pair.Pair
				for !l.Done() {
					batch := slices.Clone(l.Batch())
					if want := oracleBatch(l); !slices.Equal(batch, want) {
						t.Fatalf("%s: batch %d is %v, the strategy over every candidate chooses %v", name, len(out), batch, want)
					}
					out = append(out, batch)
					for _, q := range batch {
						if l.WasDeduced(q) {
							continue
						}
						if err := l.Deliver(q, asker.Ask(q)); err != nil {
							t.Fatal(err)
						}
					}
				}
				return out, l
			}
			one, l := batches(1)
			if len(one) < 2 {
				t.Fatalf("%s: %d batches, want a multi-loop run", name, len(one))
			}
			for _, shards := range []int{2, 4, 7} {
				if got, _ := batches(shards); !reflect.DeepEqual(one, got) {
					t.Errorf("%s: batches differ\n 1 shard:  %v\n %d shards: %v", name, one, shards, got)
				}
			}
			if !f.fickle {
				continue
			}
			// The fixture must have put the loop's own shard through what it
			// claims to.
			res := l.Result()
			hard := 0
			for _, a := range l.History() {
				prior := l.p.Prior(l.p.Graph.IndexOf(a.Pair))
				if crowd.Infer(prior, a.Labels, l.p.Cfg.Thresholds).Verdict == crowd.Unresolved {
					hard++
				}
			}
			if hard == 0 {
				t.Errorf("%s: no hard question", name)
			}
			if _, maxInf := strategy.(selection.MaxInf); maxInf {
				// MaxInf asks in pair order, so competitors share a batch: one's
				// cascade resolves the other before its own answer arrives.
				twice := 0
				for q := range res.Matches {
					if res.NonMatches.Has(q) {
						twice++
					}
				}
				if !l.p.Cfg.Deduce && twice == 0 {
					t.Errorf("%s: no pair resolved both ways", name)
				}
				if l.p.Cfg.Deduce && res.Deduced == 0 {
					t.Errorf("%s: no question deduced", name)
				}
			}
		}
	}
}
