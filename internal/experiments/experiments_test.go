package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// The experiment drivers are integration tests in their own right: each
// asserts the paper's qualitative claims on the synthetic suite. Heavier
// drivers (Table3/Figure3/Table6) are exercised at reduced shape here and
// in full by bench_test.go / cmd/remp-bench.

func TestTable4Shape(t *testing.T) {
	rows := Table4(io.Discard, 1)
	if len(rows) != 2 {
		t.Fatalf("Table4 rows = %d, want 2 (I-Y, D-Y)", len(rows))
	}
	for _, r := range rows {
		// 1:1 matching must improve precision (the paper's claim).
		if r.WithOneToOne.Precision < r.WithoutOneToOne.Precision {
			t.Errorf("%s: 1:1 precision %v < unconstrained %v",
				r.Dataset, r.WithOneToOne.Precision, r.WithoutOneToOne.Precision)
		}
	}
	// I-Y has only 4 reference matches and the paper finds them all.
	if rows[0].Dataset != "I-Y" || rows[0].WithOneToOne.F1 < 0.99 {
		t.Errorf("I-Y attribute matching F1 = %v, want ≈ 100%%", rows[0].WithOneToOne.F1)
	}
	// D-Y recall is partial (the paper reports 52.6%).
	if rows[1].WithOneToOne.Recall > 0.9 {
		t.Errorf("D-Y attribute recall = %v — expected the hard-dataset gap", rows[1].WithOneToOne.Recall)
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5(io.Discard, 1)
	if len(rows) != 4 {
		t.Fatalf("Table5 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RetainedPairs >= r.CandidatePairs {
			t.Errorf("%s: pruning kept everything (%d of %d)", r.Dataset, r.RetainedPairs, r.CandidatePairs)
		}
		// Pruning must preserve nearly all the completeness the candidates had.
		if r.RetainedPC < r.CandidatePC-0.05 {
			t.Errorf("%s: retained PC %v far below candidate PC %v", r.Dataset, r.RetainedPC, r.CandidatePC)
		}
		// The paper reports near-perfect (1–2%) monotone error rates.
		if r.MonotoneError > 0.10 {
			t.Errorf("%s: monotone error %v too high", r.Dataset, r.MonotoneError)
		}
		if r.Edges == 0 {
			t.Errorf("%s: ER graph has no edges", r.Dataset)
		}
	}
	// D-Y's candidates miss matches because of unlabeled entities.
	last := rows[3]
	if last.Dataset != "D-Y" || last.CandidatePC > 0.95 {
		t.Errorf("D-Y candidate PC = %v, want < 0.95 (missing labels)", last.CandidatePC)
	}
}

func TestFigure4Shape(t *testing.T) {
	points := Figure4(io.Discard, 1)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// PC must be monotone nondecreasing in k per dataset.
	byDS := map[string][]PCPoint{}
	for _, p := range points {
		byDS[p.Dataset] = append(byDS[p.Dataset], p)
	}
	for ds, ps := range byDS {
		for i := 1; i < len(ps); i++ {
			if ps[i].PC+1e-9 < ps[i-1].PC {
				t.Errorf("%s: PC decreased from k=%d (%v) to k=%d (%v)",
					ds, ps[i-1].K, ps[i-1].PC, ps[i].K, ps[i].PC)
			}
		}
		// Convergence: the last two ks should be nearly equal.
		n := len(ps)
		if ps[n-1].PC-ps[n-2].PC > 0.02 {
			t.Errorf("%s: PC not converged at large k", ds)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows := Table7(io.Discard, 1)
	byDS := map[string][]BatchResult{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		// F1 stable across µ (within a few points).
		for i := 1; i < len(rs); i++ {
			if diff := rs[i].F1 - rs[0].F1; diff < -0.08 || diff > 0.08 {
				t.Errorf("%s: F1 unstable across µ: %v vs %v", ds, rs[i].F1, rs[0].F1)
			}
		}
		// Loops must shrink as µ grows.
		first, last := rs[0], rs[len(rs)-1]
		if last.Loops > first.Loops {
			t.Errorf("%s: loops grew with µ: %d → %d", ds, first.Loops, last.Loops)
		}
		// Questions must not shrink as µ grows.
		if last.Questions < first.Questions {
			t.Errorf("%s: questions shrank with µ: %d → %d", ds, first.Questions, last.Questions)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	rows := Table8(io.Discard, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	frac := map[string]float64{}
	for _, r := range rows {
		frac[r.Dataset] = r.IsolatedFraction
	}
	// The isolation ordering of Table VIII: IIMB ≈ D-A ≪ I-Y < D-Y.
	if !(frac["IIMB"] < 0.05 && frac["D-A"] < 0.10) {
		t.Errorf("IIMB/D-A isolated fractions too high: %v / %v", frac["IIMB"], frac["D-A"])
	}
	if !(frac["I-Y"] > 0.10 && frac["D-Y"] > frac["I-Y"]) {
		t.Errorf("I-Y/D-Y isolation ordering wrong: %v / %v", frac["I-Y"], frac["D-Y"])
	}
	// On the isolation-heavy datasets the forest carries real weight.
	for _, r := range rows {
		if r.Dataset == "D-Y" && r.ForestF1 < 0.6 {
			t.Errorf("D-Y forest F1 = %v, want substantial", r.ForestF1)
		}
	}
}

// TestTable8DAForestErrorsAreIndistinguishable pins why Table VIII's D-A
// row reads a forest F1 of 4.7 % beside Remp's 93.1 %: the generator, not
// the classifier. D-A's authors carry no attribute, so an isolated author
// pair's feature row is an all-zero similarity vector and its label prior.
// Person names are two or three tokens from small pools, and ACM's
// abbreviated first names pull true author matches down to the same label
// similarities (1/2, 2/3) as two unrelated authors sharing two tokens.
// Some 4 000 isolated candidates pair such authors — DBLP-only with
// ACM-only ones — against six isolated gold matches, three of which the
// crowd resolves first. Every false positive then has the feature row of
// a true match the forest was right to learn from: no classifier over
// these features could reject it, and at that base rate a handful of them
// sinks precision.
func TestTable8DAForestErrorsAreIndistinguishable(t *testing.T) {
	ds, err := datasets.ByName("d-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(ds, 1)
	res := p.Run(newPlatform(ds, realWorkerConfig(1)))
	row := func(i int) string { return fmt.Sprint(p.Vector(i), p.Prior(i)) }
	goldRows := map[string]bool{}
	for _, m := range ds.Gold.Matches() {
		if i := p.Graph.IndexOf(m); i >= 0 {
			goldRows[row(i)] = true
		}
	}
	fp := 0
	for q := range res.IsolatedPredicted {
		if ds.Gold.IsMatch(q) {
			continue
		}
		fp++
		if i := p.Graph.IndexOf(q); !goldRows[row(i)] {
			t.Errorf("false positive %v has the row %s, which no gold match has: the forest erred where the features could tell", q, row(i))
		}
	}
	if fp < 10 {
		t.Fatalf("fixture lost its point: %d false positives", fp)
	}
}

func TestFigure6Shape(t *testing.T) {
	points := Figure6(io.Discard, 1)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	algs := map[string]int{}
	for _, p := range points {
		algs[p.Algorithm]++
		if p.Elapsed <= 0 {
			t.Errorf("%s@%v: nonpositive elapsed", p.Algorithm, p.Fraction)
		}
	}
	for _, a := range []string{"Algorithm 1", "Algorithm 2", "Algorithm 3"} {
		if algs[a] != 4 {
			t.Errorf("%s measured %d times, want 4", a, algs[a])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != len(Order()) {
		t.Errorf("registry has %d experiments, order lists %d", len(reg), len(Order()))
	}
	for _, id := range Order() {
		if _, ok := reg[id]; !ok {
			t.Errorf("ordered id %q missing from registry", id)
		}
		if strings.Contains(Describe(id), "unknown") {
			t.Errorf("no description for %q", id)
		}
	}
}

func TestSampleSeedsPortion(t *testing.T) {
	ds, err := datasets.ByName("iimb", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	seeds := sampleSeeds(ds, 0.2, 1)
	want := int(0.2 * float64(ds.Gold.Size()))
	if len(seeds) != want {
		t.Errorf("seeds = %d, want %d", len(seeds), want)
	}
	for _, s := range seeds {
		if !ds.Gold.IsMatch(s) {
			t.Errorf("seed %v not in gold", s)
		}
	}
	// Deterministic for the same seed.
	again := sampleSeeds(ds, 0.2, 1)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("sampleSeeds not deterministic")
		}
	}
}
