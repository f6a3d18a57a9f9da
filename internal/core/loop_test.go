package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/crowd"
	"repro/internal/pair"
	"repro/internal/selection"
)

// TestPadBatchDeterministicTies pins the padding order: unchosen
// candidates are appended by descending prior, and equal-probability ties
// break by Pair.Less — never by input position, so a shuffled candidate
// slice pads to the same question sequence.
func TestPadBatchDeterministicTies(t *testing.T) {
	cands := []selection.Candidate{
		{Pair: pair.Pair{U1: 5, U2: 1}, Prob: 0.5},
		{Pair: pair.Pair{U1: 1, U2: 2}, Prob: 0.5},
		{Pair: pair.Pair{U1: 3, U2: 3}, Prob: 0.7},
		{Pair: pair.Pair{U1: 1, U2: 1}, Prob: 0.5},
		{Pair: pair.Pair{U1: 2, U2: 2}, Prob: 0.5},
	}
	got := padBatch(cands, cands[2:3:3], 4)
	want := []pair.Pair{
		{U1: 3, U2: 3}, // the strategy's pick stays first
		{U1: 1, U2: 1}, // then the 0.5-tie block in Pair.Less order
		{U1: 1, U2: 2},
		{U1: 2, U2: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("padded to %d questions, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Pair != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, c.Pair, want[i])
		}
	}

	// Permutation invariance: the padded question sequence must not depend
	// on candidate slice order.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]selection.Candidate(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var first int
		for i, c := range shuffled {
			if c.Pair == (pair.Pair{U1: 3, U2: 3}) {
				first = i
			}
		}
		res := padBatch(shuffled, shuffled[first:first+1:first+1], 4)
		for i, c := range res {
			if c.Pair != want[i] {
				t.Fatalf("trial %d position %d: got %v, want %v", trial, i, c.Pair, want[i])
			}
		}
	}
}

// contradictingAsker answers every question with two equally qualified
// workers that disagree, so truth inference always lands exactly on the
// prior — a crowd whose labels stay inconsistent. It counts how often
// each pair is asked.
type contradictingAsker struct {
	asked map[pair.Pair]int
}

func (a *contradictingAsker) Ask(q pair.Pair) []crowd.Label {
	a.asked[q]++
	return []crowd.Label{
		{Worker: crowd.Worker{ID: 0, Quality: 0.75}, IsMatch: true},
		{Worker: crowd.Worker{ID: 1, Quality: 0.75}, IsMatch: false},
	}
}

func (a *contradictingAsker) NumQuestions() int { return len(a.asked) }

// TestHardQuestionsNotReasked exercises the damping path: a question
// whose labels stay inconsistent — truth inference never crosses either
// threshold — is marked hard and withheld from every later selection,
// because re-asking cannot make progress when the platform reuses labels.
// The loop must still terminate, with every pair asked exactly once.
func TestHardQuestionsNotReasked(t *testing.T) {
	k1, k2, _ := movieWorld(6, 31)
	cfg := DefaultConfig()
	cfg.Mu = 3
	cfg.ClassifyIsolated = false
	// Unreachable accept/reject posteriors keep every verdict Unresolved,
	// whatever the pair's prior: the all-questions-are-hard worst case.
	cfg.Thresholds = crowd.Thresholds{Accept: 1.1, Reject: -0.1}
	p := Prepare(k1, k2, cfg)

	asker := &contradictingAsker{asked: map[pair.Pair]int{}}
	res := p.Run(asker)

	if len(asker.asked) == 0 {
		t.Fatal("nothing was asked")
	}
	for q, n := range asker.asked {
		if n != 1 {
			t.Errorf("pair %v asked %d times; hard questions must not be re-asked", q, n)
		}
	}
	if res.Questions != len(asker.asked) {
		t.Errorf("res.Questions = %d, want %d distinct questions", res.Questions, len(asker.asked))
	}
	// Every asked pair stayed unresolved, so every one of them took the
	// damping path — and none was polled again.
	for q := range asker.asked {
		if res.Matches.Has(q) || res.NonMatches.Has(q) {
			t.Errorf("pair %v resolved despite inconsistent labels", q)
		}
	}
	if res.Matches.Len() != 0 {
		t.Errorf("%d matches from a crowd that never agreed", res.Matches.Len())
	}
}

// closeCounter wraps a runner and counts its Close calls.
type closeCounter struct {
	ShardRunner
	closes int
}

func (c *closeCounter) Close() (int64, error) {
	c.closes++
	return c.ShardRunner.Close()
}

// TestLoopClose pins the abandon path: Close releases the engines through
// the runner exactly once however often it is called, later deliveries
// fail with ErrLoopDone, and closing a finished loop does nothing.
func TestLoopClose(t *testing.T) {
	k1, k2, gold := movieWorld(6, 31)
	cfg := DefaultConfig()
	cfg.Mu = 3
	var runner *closeCounter
	cfg.Runner = func(p *Prepared) (ShardRunner, error) {
		inner, err := NewLocalRunner(p)
		runner = &closeCounter{ShardRunner: inner}
		return runner, err
	}
	p := Prepare(k1, k2, cfg)

	l := p.NewLoop()
	q := l.Batch()[0]
	l.Close()
	l.Close()
	if runner.closes != 1 {
		t.Fatalf("runner closed %d times, want once", runner.closes)
	}
	if err := l.Deliver(q, NewOracleAsker(gold.IsMatch).Ask(q)); !errors.Is(err, ErrLoopDone) {
		t.Fatalf("Deliver after Close: %v, want ErrLoopDone", err)
	}

	done := p.NewLoop()
	if _, err := done.Run(NewOracleAsker(gold.IsMatch)); err != nil {
		t.Fatal(err)
	}
	done.Close()
	if runner.closes != 1 || done.State() != LoopDone {
		t.Fatalf("closing a finished loop: runner closed %d times, state %s", runner.closes, done.State())
	}
}

// TestOpenBatchCostIgnoresIsolated fails if the isolated vertices creep
// back into the per-batch path: opening a batch over a couple of hundred
// connected vertices allocates about what it allocates beside 20 000
// isolated ones, one of which died since the last batch (the state every
// batch of a real session finds), while the engine shards are clean.
func TestOpenBatchCostIgnoresIsolated(t *testing.T) {
	const loners = 20_000
	k1, k2, _ := movieWorldLoners(4, loners, 41)
	cfg := DefaultConfig()
	cfg.Shards, cfg.Mu, cfg.ExhaustBudget = 4, 10, true
	with := Prepare(k1, k2, cfg)
	connected := make([]pair.Pair, 0, with.Graph.NumVertices())
	for i, v := range with.Graph.Vertices() {
		if with.home[i] >= 0 {
			connected = append(connected, v)
		}
	}
	if len(connected) < 100 || len(connected) > 400 || len(with.isolated) < loners {
		t.Fatalf("fixture has %d connected and %d isolated vertices, want about 200 and at least %d", len(connected), len(with.isolated), loners)
	}
	without := PrepareOnRetained(k1, k2, cfg, connected, testBlocking(k1, k2))
	if len(without.isolated) != 0 {
		t.Fatalf("reference graph has %d isolated vertices", len(without.isolated))
	}

	// cost measures a steady-state openBatch: allocations and bytes.
	cost := func(p *Prepared) (allocs, bytes float64) {
		l := p.NewLoop()
		defer l.Close()
		died := 0
		open := func() {
			if died < len(l.isoRank) {
				l.retire(l.isoRank[died].Index)
				died++
			}
			l.openBatch()
			if l.done || len(l.open) != cfg.Mu {
				t.Fatalf("openBatch published %d questions (done=%v)", len(l.open), l.done)
			}
		}
		const runs = 50
		allocs = testing.AllocsPerRun(runs, open)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			open()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs0, bytes0 := cost(without)
	allocs1, bytes1 := cost(with)
	t.Logf("openBatch: %.0f allocs / %.0f B without isolated vertices, %.0f allocs / %.0f B beside %d", allocs0, bytes0, allocs1, bytes1, len(with.isolated))
	if allocs1 > 2*allocs0 || bytes1 > 2*bytes0 {
		t.Errorf("openBatch beside %d isolated vertices costs %.0f allocs / %.0f B, over twice the %.0f allocs / %.0f B without them",
			len(with.isolated), allocs1, bytes1, allocs0, bytes0)
	}
}
