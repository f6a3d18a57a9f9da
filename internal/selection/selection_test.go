package selection

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func mk(i int, prob float64, inferred ...int) Candidate {
	return Candidate{
		Pair:     pair.Pair{U1: kb.EntityID(i), U2: kb.EntityID(i)},
		Prob:     prob,
		Inferred: inferred,
	}
}

func TestGreedyPicksLargestBenefit(t *testing.T) {
	cands := []Candidate{
		mk(0, 0.9, 0, 1, 2, 3), // high prob, wide inference
		mk(1, 0.9, 1),          // high prob, narrow
		mk(2, 0.1, 0, 1, 2, 3), // low prob, wide
	}
	got := Greedy{}.Select(cands, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Select = %v, want [0]", got)
	}
}

func TestGreedyCoversDisjointRegions(t *testing.T) {
	// Two overlapping wide questions vs one covering a disjoint region:
	// after picking q0, q2's disjoint coverage beats q1's redundant one.
	cands := []Candidate{
		mk(0, 0.9, 0, 1, 2),
		mk(1, 0.9, 0, 1, 2),
		mk(2, 0.9, 3, 4),
	}
	got := Greedy{}.Select(cands, 2)
	if len(got) != 2 {
		t.Fatalf("Select = %v", got)
	}
	ok := (got[0] == 0 || got[0] == 1) && got[1] == 2
	if !ok {
		t.Errorf("greedy chose redundant questions: %v", got)
	}
}

func TestGreedyStopsOnZeroGain(t *testing.T) {
	cands := []Candidate{
		mk(0, 0, 0, 1), // zero probability ⇒ zero gain
	}
	if got := (Greedy{}).Select(cands, 3); len(got) != 0 {
		t.Errorf("Select = %v, want empty", got)
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	var cands []Candidate
	for i := 0; i < 10; i++ {
		cands = append(cands, mk(i, 0.5, i))
	}
	if got := (Greedy{}).Select(cands, 3); len(got) != 3 {
		t.Errorf("budget violated: %v", got)
	}
}

func TestBenefitFormula(t *testing.T) {
	// Single question: benefit = Σ_{p∈inferred} Pr[m_q].
	cands := []Candidate{mk(0, 0.6, 0, 1, 2)}
	if got := Benefit(cands, []int{0}); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("Benefit = %v, want 1.8", got)
	}
	// Two questions inferring the same pair p: bp = 1-(1-p1)(1-p2).
	cands = []Candidate{mk(0, 0.6, 7), mk(1, 0.5, 7)}
	want := 1 - (1-0.6)*(1-0.5)
	if got := Benefit(cands, []int{0, 1}); math.Abs(got-want) > 1e-12 {
		t.Errorf("Benefit = %v, want %v", got, want)
	}
}

// Property: benefit is monotone and submodular on random instances
// (Theorem 2).
func TestBenefitMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		n := 3 + rng.Intn(5)
		var cands []Candidate
		for i := 0; i < n; i++ {
			var inf []int
			for p := 0; p < 6; p++ {
				if rng.Intn(2) == 0 {
					inf = append(inf, p)
				}
			}
			cands = append(cands, mk(i, rng.Float64(), inf...))
		}
		// Random Q ⊂ Q′ and q ∉ Q′.
		var q1, q2 []int
		for i := 0; i < n-1; i++ {
			if rng.Intn(2) == 0 {
				q1 = append(q1, i)
			}
			if rng.Intn(2) == 0 {
				q2 = append(q2, i)
			}
		}
		union := mergeSets(q1, q2)
		q := n - 1
		bQ1 := Benefit(cands, q1)
		bU := Benefit(cands, union)
		if bU < bQ1-1e-9 {
			t.Fatalf("monotonicity violated: B(Q∪Q')=%v < B(Q)=%v", bU, bQ1)
		}
		// Submodularity: gain at smaller set ≥ gain at larger set.
		gainSmall := Benefit(cands, append(append([]int{}, q1...), q)) - bQ1
		gainBig := Benefit(cands, append(append([]int{}, union...), q)) - bU
		if gainSmall < gainBig-1e-9 {
			t.Fatalf("submodularity violated: %v < %v", gainSmall, gainBig)
		}
	}
}

// Property: lazy greedy equals plain greedy, and on small instances is
// within (1−1/e) of the brute-force optimum.
func TestGreedyApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(4)
		mu := 1 + rng.Intn(3)
		var cands []Candidate
		for i := 0; i < n; i++ {
			var inf []int
			inf = append(inf, i)
			for p := 0; p < 5; p++ {
				if rng.Intn(3) == 0 {
					inf = append(inf, 10+p)
				}
			}
			cands = append(cands, mk(i, 0.1+0.9*rng.Float64(), inf...))
		}
		chosen := Greedy{}.Select(cands, mu)
		gb := Benefit(cands, chosen)
		best := bruteForceBest(cands, mu)
		if gb < (1-1/math.E)*best-1e-9 {
			t.Fatalf("iter %d: greedy %v below guarantee of optimum %v", iter, gb, best)
		}
	}
}

func bruteForceBest(cands []Candidate, mu int) float64 {
	n := len(cands)
	best := 0.0
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if b := Benefit(cands, chosen); b > best {
			best = b
		}
		if len(chosen) == mu {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	return best
}

func mergeSets(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range append(append([]int{}, a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func TestMaxInfStrategy(t *testing.T) {
	cands := []Candidate{
		mk(0, 0.9, 0),
		mk(1, 0.1, 0, 1, 2, 3, 4),
		mk(2, 0.5, 0, 1),
	}
	got := MaxInf{}.Select(cands, 2)
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("MaxInf = %v, want [1 2]", got)
	}
}

func TestMaxPrStrategy(t *testing.T) {
	cands := []Candidate{
		mk(0, 0.9, 0),
		mk(1, 0.1, 0, 1, 2, 3, 4),
		mk(2, 0.5, 0, 1),
	}
	got := MaxPr{}.Select(cands, 2)
	if got[0] != 0 || got[1] != 2 {
		t.Errorf("MaxPr = %v, want [0 2]", got)
	}
}

func TestStrategiesEmptyInput(t *testing.T) {
	for _, s := range []Strategy{Greedy{}, MaxInf{}, MaxPr{}} {
		if got := s.SelectRanked(nil, 5); len(got) != 0 {
			t.Errorf("%T on empty input: %v", s, got)
		}
		if got := s.SelectRanked([]Candidate{mk(0, 0.5, 0)}, 0); len(got) != 0 {
			t.Errorf("%T with µ=0: %v", s, got)
		}
	}
}

// Benefit evaluates benefit(Q) for an explicit question set (Eq. 16).
// chosen indexes into cands.
func Benefit(cands []Candidate, chosen []int) float64 {
	state := getBenefitState()
	defer putBenefitState(state)
	for _, i := range chosen {
		state.add(cands[i])
	}
	total := 0.0
	for _, p := range state.touched {
		total += state.bp[p]
	}
	return total
}

// TestOpeningGainIsGainBitwise: before any pick, openingGain — Prob added
// once per inferred index, no state read — is bit for bit the gain an
// empty benefit state computes, on random candidates with repeated
// indexes and priors of 0, −0, subnormals, 1 and values in between. The
// empty state is one a call has just emptied after picks wrote it, so
// stale entries must read as 0 too.
func TestOpeningGainIsGainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	priors := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030, 1, math.Nextafter(1, 0)}
	checked := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		cands := make([]Candidate, n)
		for i := range cands {
			var inf []int
			for range rng.Intn(40) {
				inf = append(inf, rng.Intn(30))
			}
			if len(inf) > 0 && rng.Intn(2) == 0 {
				inf = append(inf, inf[rng.Intn(len(inf))]) // a repeated index
			}
			prob := rng.Float64()
			if rng.Intn(2) == 0 {
				prob = priors[rng.Intn(len(priors))]
			}
			cands[i] = mk(i, prob, inf...)
		}
		Greedy{}.SelectRanked(cands, 1+rng.Intn(n)) // leaves the pooled state written
		state := getBenefitState()
		for i, c := range cands {
			if got, want := openingGain(c), state.gain(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d candidate %d (prob %g, %d inferred): opening gain %g (%#x), gain %g (%#x)",
					trial, i, c.Prob, len(c.Inferred), got, math.Float64bits(got), want, math.Float64bits(want))
			}
			checked++
		}
		putBenefitState(state)
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
}

// TestSelectionIsAPrefixOfALargerOne pins the Strategy contract's prefix
// property: for every k ≤ m, SelectRanked(c, k) is the first k picks of
// SelectRanked(c, m) (all of them when it holds fewer), on random
// candidate sets with tied scores, zero-probability candidates and
// candidates a higher pick covers fully, for every µ from 0 to len+2.
func TestSelectionIsAPrefixOfALargerOne(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	probs := []float64{0, 0.25, 0.5, 0.5, 1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		cands := make([]Candidate, n)
		for i := range cands {
			inf := []int{i}
			if i > 0 && rng.Intn(4) == 0 {
				// A copy of an earlier candidate's set: once that one is
				// chosen at probability 1, this one gains nothing.
				inf = append(inf, cands[rng.Intn(i)].Inferred...)
			}
			for range rng.Intn(4) {
				inf = append(inf, rng.Intn(n+6))
			}
			cands[i] = mk(i, probs[rng.Intn(len(probs))], inf...)
		}
		for _, s := range []Strategy{Greedy{}, MaxInf{}, MaxPr{}} {
			ranked := make([][]Pick, n+3)
			for mu := range ranked {
				ranked[mu] = s.SelectRanked(cands, mu)
			}
			for m := range ranked {
				for k := 0; k <= m; k++ {
					want := ranked[m][:min(k, len(ranked[m]))]
					if got := ranked[k]; !slices.Equal(got, want) {
						t.Fatalf("trial %d, %s: SelectRanked(c, %d) = %v, the first %d of SelectRanked(c, %d) are %v",
							trial, s.Name(), k, got, k, m, want)
					}
				}
			}
		}
	}
}
