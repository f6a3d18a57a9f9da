package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/crowd"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/selection"

	"repro/internal/kb"
)

// movieWorld builds a two-KB movie domain with n directors, each directing
// two movies, each movie having two actors, actors born in cities. Labels
// mostly agree across KBs with slight perturbations; a fraction of person
// entities is isolated (no relationships).
func movieWorld(n int, seed int64) (*kb.KB, *kb.KB, *pair.Gold) {
	return movieWorldLoners(n, 0, seed)
}

// movieWorldLoners is movieWorld plus the given number of further entity
// pairs without a relationship, each under a one-token label of its own:
// they share a blocking token with nothing, so each adds exactly one
// isolated vertex to the ER graph.
func movieWorldLoners(n, loners int, seed int64) (*kb.KB, *kb.KB, *pair.Gold) {
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("kb1")
	k2 := kb.New("kb2")
	dir1, dir2 := k1.AddRel("directedBy"), k2.AddRel("director")
	act1, act2 := k1.AddRel("actedIn"), k2.AddRel("starring")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")
	year1, year2 := k1.AddAttr("year"), k2.AddAttr("released")

	var gold []pair.Pair
	addPair := func(base, typ string, perturb bool) (kb.EntityID, kb.EntityID) {
		u1 := k1.AddEntity("a:" + base)
		u2 := k2.AddEntity("b:" + base)
		l1 := base
		l2 := base
		if perturb && rng.Intn(3) == 0 {
			l2 = base + " jr"
		}
		k1.SetLabel(u1, l1)
		k2.SetLabel(u2, l2)
		k1.SetType(u1, typ)
		k2.SetType(u2, typ)
		k1.AddAttrTriple(u1, name1, l1)
		k2.AddAttrTriple(u2, name2, l2)
		gold = append(gold, pair.Pair{U1: u1, U2: u2})
		return u1, u2
	}

	for i := 0; i < n; i++ {
		d1, d2 := addPair(fmt.Sprintf("director %d", i), "person", false)
		for m := 0; m < 2; m++ {
			mv1, mv2 := addPair(fmt.Sprintf("movie %d %d", i, m), "movie", true)
			yr := fmt.Sprintf("%d", 1950+rng.Intn(60))
			k1.AddAttrTriple(mv1, year1, yr)
			k2.AddAttrTriple(mv2, year2, yr)
			k1.AddRelTriple(mv1, dir1, d1)
			k2.AddRelTriple(mv2, dir2, d2)
			for a := 0; a < 2; a++ {
				ac1, ac2 := addPair(fmt.Sprintf("actor %d %d %d", i, m, a), "person", true)
				k1.AddRelTriple(ac1, act1, mv1)
				k2.AddRelTriple(ac2, act2, mv2)
			}
		}
		// One isolated pair per director cluster.
		addPair(fmt.Sprintf("writer %d", i), "person", false)
	}
	for i := 0; i < loners; i++ {
		addPair(fmt.Sprintf("editor%d", i), "person", false)
	}
	return k1, k2, pair.NewGold(gold)
}

func TestPrepareStages(t *testing.T) {
	k1, k2, gold := movieWorld(5, 1)
	p := Prepare(k1, k2, DefaultConfig())
	blk := testBlocking(k1, k2)

	if len(blk.Candidates) == 0 {
		t.Fatal("no candidates generated")
	}
	if len(p.Initial) == 0 || !slices.Equal(p.Initial, blk.Initial) {
		t.Fatal("no initial matches")
	}
	if len(p.AttrMatches) == 0 {
		t.Fatal("no attribute matches")
	}
	// name↔label must be among the attribute matches.
	found := false
	for _, m := range p.AttrMatches {
		if k1.AttrName(m.A1) == "name" && k2.AttrName(m.A2) == "label" {
			found = true
		}
	}
	if !found {
		t.Errorf("name↔label not matched: %v", p.AttrMatches)
	}
	if len(p.Retained) == 0 || len(p.Retained) > len(blk.Candidates) {
		t.Fatalf("retained %d of %d", len(p.Retained), len(blk.Candidates))
	}
	// Pruning must keep pair completeness high.
	pc := pair.PairCompleteness(pair.NewSet(p.Retained...), gold)
	if pc < 0.9 {
		t.Errorf("pair completeness after pruning = %v", pc)
	}
	if p.Graph.NumVertices() != len(p.Retained) {
		t.Error("graph vertex count mismatch")
	}
	if p.Graph.NumEdges() == 0 {
		t.Error("graph has no edges")
	}
	if len(p.Consistency) == 0 {
		t.Error("no consistency estimates")
	}
}

// TestPrepareSubStagesFitInPrepare times one Prepare on a fake clock
// that steps on every reading: each of its five sub-stages records one
// span, and the sub-stages run one after another inside the prepare
// span, so together they take no longer than it.
func TestPrepareSubStagesFitInPrepare(t *testing.T) {
	k1, k2, _ := movieWorld(5, 1)
	var now atomic.Int64
	trace := obs.NewLoopTrace(func() int64 { return now.Add(1000) })
	cfg := DefaultConfig()
	cfg.Obs = &obs.Pipeline{Trace: trace}
	Prepare(k1, k2, cfg)

	totals := trace.Totals()
	subs := int64(0)
	for _, st := range []obs.Stage{obs.StageBlock, obs.StageSimilarity, obs.StageGraph, obs.StageFit, obs.StageShards} {
		d, ok := totals[st.String()]
		if !ok || d <= 0 {
			t.Errorf("stage %s: no span recorded (totals %v)", st, totals)
		}
		subs += d
	}
	if whole := totals[obs.StagePrepare.String()]; subs > whole {
		t.Errorf("block + similarity + graph + fit + shards = %d ns > prepare %d ns (totals %v)", subs, whole, totals)
	}
}

func TestRunWithOracle(t *testing.T) {
	k1, k2, gold := movieWorld(6, 2)
	cfg := DefaultConfig()
	cfg.Mu = 5
	p := Prepare(k1, k2, cfg)
	asker := NewOracleAsker(gold.IsMatch)
	res := p.Run(asker)

	m := pair.Evaluate(res.Matches, gold)
	if m.F1 < 0.8 {
		t.Errorf("oracle-labeled run F1 = %v, want ≥ 0.8 (P=%v R=%v, Q=%d)",
			m.F1, m.Precision, m.Recall, res.Questions)
	}
	if res.Questions == 0 {
		t.Error("no questions asked")
	}
	// Propagation must do real work: far fewer questions than matches.
	if res.Questions >= gold.Size() {
		t.Errorf("asked %d questions for %d matches — no inference happening",
			res.Questions, gold.Size())
	}
	if res.Loops == 0 {
		t.Error("no loops recorded")
	}
}

func TestRunWithNoisyWorkers(t *testing.T) {
	k1, k2, gold := movieWorld(6, 3)
	cfg := DefaultConfig()
	p := Prepare(k1, k2, cfg)
	platform := crowd.NewPlatform(gold.IsMatch, crowd.Config{
		NumWorkers: 30, WorkersPerQuestion: 5, ErrorRate: 0.15, Seed: 4,
	})
	res := p.Run(platform)
	m := pair.Evaluate(res.Matches, gold)
	if m.F1 < 0.7 {
		t.Errorf("noisy run F1 = %v (P=%v R=%v)", m.F1, m.Precision, m.Recall)
	}
}

func TestRunBudget(t *testing.T) {
	k1, k2, gold := movieWorld(8, 5)
	cfg := DefaultConfig()
	cfg.Budget = 3
	cfg.Mu = 2
	p := Prepare(k1, k2, cfg)
	res := p.Run(NewOracleAsker(gold.IsMatch))
	if res.Questions > 3 {
		t.Errorf("budget exceeded: %d questions", res.Questions)
	}
}

func TestRunMaxLoops(t *testing.T) {
	k1, k2, gold := movieWorld(8, 6)
	cfg := DefaultConfig()
	cfg.MaxLoops = 2
	cfg.Mu = 1
	p := Prepare(k1, k2, cfg)
	res := p.Run(NewOracleAsker(gold.IsMatch))
	if res.Loops > 2 {
		t.Errorf("loops exceeded: %d", res.Loops)
	}
}

func TestIsolatedClassifierAddsMatches(t *testing.T) {
	k1, k2, gold := movieWorld(10, 7)
	cfg := DefaultConfig()
	p := Prepare(k1, k2, cfg)
	res := p.Run(NewOracleAsker(gold.IsMatch))

	cfg2 := DefaultConfig()
	cfg2.ClassifyIsolated = false
	p2 := Prepare(k1, k2, cfg2)
	res2 := p2.Run(NewOracleAsker(gold.IsMatch))

	if res.IsolatedPredicted.Len() == 0 {
		t.Log("warning: classifier predicted nothing (may be legitimate on this fixture)")
	}
	mWith := pair.Evaluate(res.Matches, gold)
	mWithout := pair.Evaluate(res2.Matches, gold)
	if mWith.Recall < mWithout.Recall {
		t.Errorf("classifier reduced recall: %v < %v", mWith.Recall, mWithout.Recall)
	}
}

func TestPropagateFromSeeds(t *testing.T) {
	k1, k2, gold := movieWorld(8, 8)
	p := Prepare(k1, k2, DefaultConfig())
	all := gold.Matches()
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(len(all))

	var prevF1 float64
	for _, portion := range []float64{0.2, 0.5, 0.8} {
		nSeeds := int(portion * float64(len(all)))
		seeds := make([]pair.Pair, 0, nSeeds)
		for _, i := range perm[:nSeeds] {
			seeds = append(seeds, all[i])
		}
		matches := p.PropagateFromSeeds(seeds)
		m := pair.Evaluate(matches, gold)
		if m.F1+0.05 < prevF1 {
			t.Errorf("portion %v: F1 %v dropped well below previous %v", portion, m.F1, prevF1)
		}
		prevF1 = m.F1
		// Seeds must always be included.
		for _, s := range seeds {
			if !matches.Has(s) {
				t.Fatalf("seed %v missing from propagated matches", s)
			}
		}
	}
	if prevF1 < 0.8 {
		t.Errorf("80%% seeds should push F1 ≥ 0.8, got %v", prevF1)
	}
}

func TestStrategiesDiffer(t *testing.T) {
	// MaxPr should need more questions than greedy benefit for the same
	// dataset, or produce no better F1 with equal questions.
	k1, k2, gold := movieWorld(6, 10)

	run := func(s selection.Strategy) (int, float64) {
		cfg := DefaultConfig()
		cfg.Strategy = s
		cfg.Mu = 1
		cfg.ClassifyIsolated = false
		p := Prepare(k1, k2, cfg)
		res := p.Run(NewOracleAsker(gold.IsMatch))
		return res.Questions, pair.Evaluate(res.Matches, gold).F1
	}
	qG, f1G := run(selection.Greedy{})
	qP, f1P := run(selection.MaxPr{})
	t.Logf("greedy: %d questions, F1 %.3f; maxpr: %d questions, F1 %.3f", qG, f1G, qP, f1P)
	if f1G == 0 {
		t.Error("greedy found nothing")
	}
	_ = qP
	_ = f1P
}

func TestOracleAskerCountsDistinct(t *testing.T) {
	o := NewOracleAsker(func(pair.Pair) bool { return true })
	q := pair.Pair{U1: 1, U2: 1}
	o.Ask(q)
	o.Ask(q)
	o.Ask(pair.Pair{U1: 2, U2: 2})
	if o.NumQuestions() != 2 {
		t.Errorf("NumQuestions = %d, want 2", o.NumQuestions())
	}
}

// TestEntityBlocksKeepVertexOrder: resolveCompetitors visits a confirmed
// match's same-entity competitors through Prepared.blocks, and its
// detaches reach the shard runners in that order.
// Over a random retained set handed to PrepareOnRetained in non-pair
// order, every block must read exactly as the per-entity map the index
// replaced: filled by appending vertex indexes in vertex order.
func TestEntityBlocksKeepVertexOrder(t *testing.T) {
	k1, k2, _ := movieWorld(6, 7)
	full := Prepare(k1, k2, DefaultConfig())
	retained := slices.Clone(full.Retained)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(retained), func(i, j int) { retained[i], retained[j] = retained[j], retained[i] })
	retained = retained[:len(retained)*3/4]
	p := PrepareOnRetained(k1, k2, DefaultConfig(), retained, testBlocking(k1, k2))
	if !slices.Equal(p.Graph.Vertices(), retained) {
		t.Fatal("vertex order is not the retained order")
	}

	by1 := map[kb.EntityID][]int32{}
	by2 := map[kb.EntityID][]int32{}
	for i, v := range p.Graph.Vertices() {
		by1[v.U1] = append(by1[v.U1], int32(i))
		by2[v.U2] = append(by2[v.U2], int32(i))
	}
	shared := 0
	for i, v := range p.Graph.Vertices() {
		got := p.blocks(i)
		if !slices.Equal(got[0], by1[v.U1]) || !slices.Equal(got[1], by2[v.U2]) {
			t.Fatalf("blocks(%v) = %v, want [%v %v]", v, got, by1[v.U1], by2[v.U2])
		}
		if len(got[0]) > 1 || len(got[1]) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no entity is in two retained pairs: the test compares nothing")
	}
}
