package remp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/remp"
)

// tinyWorld builds a pair of small KBs with an obvious alignment.
func tinyWorld() (remp.Dataset, *remp.Gold) {
	k1 := remp.NewKB("left")
	k2 := remp.NewKB("right")
	name1 := k1.AddAttr("name")
	name2 := k2.AddAttr("title")
	r1 := k1.AddRel("wrote")
	r2 := k2.AddRel("author")

	var gold []remp.Pair
	for i := 0; i < 8; i++ {
		a1 := k1.AddEntity(fmt.Sprintf("l:author%d", i))
		a2 := k2.AddEntity(fmt.Sprintf("r:author%d", i))
		label := fmt.Sprintf("author number %d", i)
		k1.SetLabel(a1, label)
		k2.SetLabel(a2, label)
		k1.AddAttrTriple(a1, name1, label)
		k2.AddAttrTriple(a2, name2, label)
		gold = append(gold, remp.Pair{U1: a1, U2: a2})

		b1 := k1.AddEntity(fmt.Sprintf("l:book%d", i))
		b2 := k2.AddEntity(fmt.Sprintf("r:book%d", i))
		bl := fmt.Sprintf("famous book %d", i)
		k1.SetLabel(b1, bl)
		k2.SetLabel(b2, bl)
		k1.AddAttrTriple(b1, name1, bl)
		k2.AddAttrTriple(b2, name2, bl)
		k1.AddRelTriple(a1, r1, b1)
		k2.AddRelTriple(a2, r2, b2)
		gold = append(gold, remp.Pair{U1: b1, U2: b2})
	}
	return remp.Dataset{K1: k1, K2: k2}, remp.NewGold(gold)
}

func TestResolveEndToEnd(t *testing.T) {
	ds, gold := tinyWorld()
	asker := remp.NewOracleCrowd(gold.IsMatch)
	res, err := remp.Resolve(ds, asker, remp.Options{Mu: 2})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	m := remp.Evaluate(res.Matches, gold)
	if m.F1 < 0.9 {
		t.Errorf("F1 = %v (P=%v R=%v, Q=%d)", m.F1, m.Precision, m.Recall, res.Questions)
	}
	if len(res.Propagated) == 0 {
		t.Error("no matches were inferred through the ER graph")
	}
	if len(res.Confirmed) >= gold.Size() {
		t.Errorf("every match was worker-confirmed (%d for %d gold) — propagation did nothing",
			len(res.Confirmed), gold.Size())
	}
}

// recordingAsker records the questions that actually reach the platform,
// in call order, and the labels it answered each with, in wire form.
type recordingAsker struct {
	inner  remp.Asker
	calls  []remp.Pair
	labels map[remp.Pair][]remp.Label
}

func newRecordingAsker(inner remp.Asker) *recordingAsker {
	return &recordingAsker{inner: inner, labels: map[remp.Pair][]remp.Label{}}
}

func (r *recordingAsker) Ask(q remp.Pair) []crowd.Label {
	labels := r.inner.Ask(q)
	r.calls = append(r.calls, q)
	wire := make([]remp.Label, len(labels))
	for i, l := range labels {
		wire[i] = remp.Label{WorkerID: l.Worker.ID, Quality: l.Worker.Quality, IsMatch: l.IsMatch}
	}
	r.labels[q] = wire
	return labels
}

func (r *recordingAsker) NumQuestions() int { return len(r.calls) }

// denseWorld builds a fixture with ambiguous candidates (perturbed book
// labels under shared authors), so propagation cascades can imply
// verdicts for open batch-mates — the raw material of deduction.
func denseWorld(n int, seed int64) (remp.Dataset, *remp.Gold) {
	rng := rand.New(rand.NewSource(seed))
	k1 := remp.NewKB("left")
	k2 := remp.NewKB("right")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")
	wrote1, wrote2 := k1.AddRel("wrote"), k2.AddRel("authorOf")

	var gold []remp.Pair
	add := func(base string, perturb bool) (remp.EntityID, remp.EntityID) {
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
		gold = append(gold, remp.Pair{U1: u1, U2: u2})
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
	return remp.Dataset{K1: k1, K2: k2}, remp.NewGold(gold)
}

// TestResolveWithDeduction checks the public Deduce option end to end:
// the resolved sets are identical to a Deduce-off run, the crowd is
// asked strictly fewer questions, every saved question is accounted in
// Result.Deduced, and no deduced question ever reaches the Asker.
func TestResolveWithDeduction(t *testing.T) {
	ds, gold := denseWorld(6, 23)
	base, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), remp.Options{Mu: 4})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	asker := newRecordingAsker(remp.NewOracleCrowd(gold.IsMatch))
	res, err := remp.Resolve(ds, asker, remp.Options{Mu: 4, Deduce: true})
	if err != nil {
		t.Fatalf("Resolve(Deduce): %v", err)
	}
	if res.Deduced == 0 {
		t.Fatal("deduction saved nothing on a fixture with propagation cascades")
	}
	if res.Questions >= base.Questions {
		t.Errorf("questions %d with deduction, %d without — no crowd saving", res.Questions, base.Questions)
	}
	if len(asker.calls) != res.Questions {
		t.Errorf("the Asker was called %d times for %d counted questions — a deduced question reached the crowd", len(asker.calls), res.Questions)
	}
	if len(res.Matches) != len(base.Matches) || len(res.NonMatches) != len(base.NonMatches) {
		t.Errorf("deduction changed the result: %d/%d matches, %d/%d non-matches",
			len(res.Matches), len(base.Matches), len(res.NonMatches), len(base.NonMatches))
	}
	for p := range base.Matches {
		if _, ok := res.Matches[p]; !ok {
			t.Fatalf("match %v lost under deduction", p)
		}
	}
}

func TestResolveWithSimulatedCrowd(t *testing.T) {
	ds, gold := tinyWorld()
	asker := remp.NewSimulatedCrowd(gold.IsMatch, remp.CrowdConfig{ErrorRate: 0.1, Seed: 5})
	res, err := remp.Resolve(ds, asker, remp.Options{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if remp.Evaluate(res.Matches, gold).F1 < 0.8 {
		t.Errorf("noisy crowd F1 too low")
	}
}

func TestResolveValidation(t *testing.T) {
	ds, gold := tinyWorld()
	if _, err := remp.Resolve(remp.Dataset{}, remp.NewOracleCrowd(gold.IsMatch), remp.Options{}); err == nil {
		t.Error("nil KBs accepted")
	}
	if _, err := remp.Resolve(ds, nil, remp.Options{}); err == nil {
		t.Error("nil asker accepted")
	}
	if _, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), remp.Options{Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestResolveRejectsInvalidTau(t *testing.T) {
	ds, gold := tinyWorld()
	for _, tau := range []float64{-0.2, 1.5, 7} {
		_, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), remp.Options{Tau: tau})
		if err == nil {
			t.Errorf("Tau = %v accepted; want a descriptive error", tau)
			continue
		}
		if !strings.Contains(err.Error(), "Tau") {
			t.Errorf("Tau = %v: error %q does not name the offending field", tau, err)
		}
	}
	// Zero keeps the paper's default; a valid value is accepted.
	for _, tau := range []float64{0, 0.8, 1} {
		if _, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), remp.Options{Tau: tau}); err != nil {
			t.Errorf("Tau = %v rejected: %v", tau, err)
		}
	}
}

// TestRunnerStartFailureIsReturned: a shard runner that will not start
// fails Resolve and Pipeline.Run with the factory's error — not a stalled
// loop, and not a panic.
func TestRunnerStartFailureIsReturned(t *testing.T) {
	ds, gold := tinyWorld()
	cause := errors.New("no shard workers")
	opts := remp.Options{Runner: func(*core.Prepared) (core.ShardRunner, error) { return nil, cause }}
	if _, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts); !errors.Is(err, cause) {
		t.Errorf("Resolve: %v, want the runner factory's error", err)
	}
	p, err := remp.NewPipeline(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(remp.NewOracleCrowd(gold.IsMatch)); !errors.Is(err, cause) {
		t.Errorf("Pipeline.Run: %v, want the runner factory's error", err)
	}
}

func TestPipelineIntrospection(t *testing.T) {
	ds, _ := tinyWorld()
	p, err := remp.NewPipeline(ds, remp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CandidatePairs()) == 0 {
		t.Error("no candidate pairs")
	}
	v, e := p.GraphStats()
	if v == 0 || e == 0 {
		t.Errorf("graph stats %d/%d", v, e)
	}
}

// TestPipelineRunIsRepeatable pins Pipeline reuse: every Run over one
// Pipeline — here under a fallible crowd, so pairs are detached and edges
// re-estimated — returns what Resolve returns on a pipeline of its own.
func TestPipelineRunIsRepeatable(t *testing.T) {
	ds, gold := denseWorld(6, 29)
	opts := remp.Options{Mu: 4}
	noisy := func() remp.Asker {
		return remp.NewSimulatedCrowd(gold.IsMatch, remp.CrowdConfig{ErrorRate: 0.1, Seed: 5})
	}
	want, err := remp.Resolve(ds, noisy(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.NonMatches) == 0 {
		t.Fatal("fixture too easy: nothing was resolved negative, so nothing was detached")
	}
	p, err := remp.NewPipeline(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 3; run++ {
		got, err := p.Run(noisy())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertSameResult(t, want, got)
	}
}

func TestPropagateFromSeedsAPI(t *testing.T) {
	ds, gold := tinyWorld()
	p, err := remp.NewPipeline(ds, remp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := gold.Matches()[:4]
	matches := p.PropagateFromSeeds(seeds)
	if len(matches) < len(seeds) {
		t.Errorf("propagation lost seeds: %d < %d", len(matches), len(seeds))
	}
}
