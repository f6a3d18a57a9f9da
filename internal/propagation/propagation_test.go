package propagation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

func TestPosteriorsSingleCandidate(t *testing.T) {
	nb := &Neighborhood{
		Cands: []CandidatePair{{Row: 0, Col: 0, Pair: pair.Pair{U1: 1, U2: 1}, Prior: 0.5}},
		Eps1:  0.9, Eps2: 0.9,
	}
	post := nb.Posteriors()
	// w = 1 · 9 · 9 = 81; Pr = 81/82.
	want := 81.0 / 82.0
	if math.Abs(post[0]-want) > 1e-9 {
		t.Errorf("posterior = %v, want %v", post[0], want)
	}
}

// TestPosteriorsFigure1 reproduces the paper's worked example (§V-B): Tim
// directed Cradle and Player in both KBs; candidates are (Cradle,Cradle),
// (Player,Player) and (Cradle,Player); ε1 = ε2 = 0.9, priors 0.5. The
// correct pairs should come out ≈ 0.98 and the wrong one ≈ 0.01.
func TestPosteriorsFigure1(t *testing.T) {
	nb := &Neighborhood{
		Cands: []CandidatePair{
			{Row: 0, Col: 0, Pair: pair.Pair{U1: 10, U2: 10}, Prior: 0.5}, // CC
			{Row: 1, Col: 1, Pair: pair.Pair{U1: 11, U2: 11}, Prior: 0.5}, // PP
			{Row: 0, Col: 1, Pair: pair.Pair{U1: 10, U2: 11}, Prior: 0.5}, // CP
		},
		Eps1: 0.9, Eps2: 0.9,
	}
	post := nb.Posteriors()
	// Exact: Z = 1 + 3·81 + 81² = 6805; Pr[CC] = (81+6561)/6805.
	wantCC := 6642.0 / 6805.0
	wantCP := 81.0 / 6805.0
	if math.Abs(post[0]-wantCC) > 1e-9 {
		t.Errorf("Pr[CC] = %v, want %v", post[0], wantCC)
	}
	if math.Abs(post[1]-wantCC) > 1e-9 {
		t.Errorf("Pr[PP] = %v, want %v", post[1], wantCC)
	}
	if math.Abs(post[2]-wantCP) > 1e-9 {
		t.Errorf("Pr[CP] = %v, want %v", post[2], wantCP)
	}
	if post[0] < 0.95 || post[2] > 0.03 {
		t.Errorf("shape wrong: CC=%v CP=%v", post[0], post[2])
	}
}

// TestPosteriorsMatchBruteForce checks the bitmask DP against explicit
// enumeration of all injective match sets on random small instances.
func TestPosteriorsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 100; iter++ {
		rows := 1 + rng.Intn(3)
		cols := 1 + rng.Intn(3)
		var cands []CandidatePair
		id := 0
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Intn(3) == 0 {
					continue
				}
				cands = append(cands, CandidatePair{
					Row: r, Col: c,
					Pair:  pair.Pair{U1: kb.EntityID(id), U2: kb.EntityID(id)},
					Prior: 0.1 + 0.8*rng.Float64(),
				})
				id++
			}
		}
		if len(cands) == 0 {
			continue
		}
		nb := &Neighborhood{
			Cands: cands,
			Eps1:  0.2 + 0.7*rng.Float64(), Eps2: 0.2 + 0.7*rng.Float64(),
		}
		got := nb.Posteriors()
		want := bruteForcePosteriors(nb, rows, cols)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("iter %d cand %d: DP %v, brute force %v (nb=%+v)", iter, i, got[i], want[i], nb)
			}
		}
	}
}

// bruteForcePosteriors enumerates all subsets of candidates, keeps the
// injective ones, and computes exact marginals from Eq. (6)–(9) directly
// (including the constant factors of the value-set sizes n1 and n2, which
// must cancel).
func bruteForcePosteriors(nb *Neighborhood, n1, n2 int) []float64 {
	n := len(nb.Cands)
	total := 0.0
	marg := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		if !injective(nb.Cands, mask) {
			continue
		}
		w := weightOf(nb, n1, n2, mask)
		total += w
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				marg[i] += w
			}
		}
	}
	for i := range marg {
		marg[i] /= total
	}
	return marg
}

func injective(cands []CandidatePair, mask int) bool {
	rows := map[int]bool{}
	cols := map[int]bool{}
	for i, c := range cands {
		if mask&(1<<i) == 0 {
			continue
		}
		if rows[c.Row] || cols[c.Col] {
			return false
		}
		rows[c.Row] = true
		cols[c.Col] = true
	}
	return true
}

// weightOf computes f(M)·g(M|N1)·g(M|N2) verbatim from the paper.
func weightOf(nb *Neighborhood, n1, n2, mask int) float64 {
	e1 := clampProb(nb.Eps1)
	e2 := clampProb(nb.Eps2)
	f := 1.0
	size := 0
	for i, c := range nb.Cands {
		p := clampProb(c.Prior)
		if mask&(1<<i) != 0 {
			f *= p
			size++
		} else {
			f *= 1 - p
		}
	}
	g1 := math.Pow(e1, float64(size)) * math.Pow(1-e1, float64(n1-size))
	g2 := math.Pow(e2, float64(size)) * math.Pow(1-e2, float64(n2-size))
	return f * g1 * g2
}

func TestApproxPosteriorsReasonable(t *testing.T) {
	// On a star (one row, many cols) the approximation is exact.
	var cands []CandidatePair
	for c := 0; c < 5; c++ {
		cands = append(cands, CandidatePair{Row: 0, Col: c,
			Pair: pair.Pair{U1: 0, U2: kb.EntityID(c)}, Prior: 0.5})
	}
	nb := &Neighborhood{Cands: cands, Eps1: 0.8, Eps2: 0.8}
	exact := nb.Posteriors()
	var ms matchScratch
	approx := ms.posteriors(cands, nb.Eps1, nb.Eps2, true)
	for i := range exact {
		if math.Abs(exact[i]-approx[i]) > 1e-9 {
			t.Errorf("star graph: exact %v != approx %v", exact[i], approx[i])
		}
	}
}

func TestHighPriorBeatsCompetitors(t *testing.T) {
	// Two rows compete for one column; the higher-prior pair should get
	// the (much) higher posterior.
	cands := []CandidatePair{
		{Row: 0, Col: 0, Pair: pair.Pair{U1: 0, U2: 0}, Prior: 0.9},
		{Row: 1, Col: 0, Pair: pair.Pair{U1: 1, U2: 0}, Prior: 0.2},
	}
	nb := &Neighborhood{Cands: cands, Eps1: 0.9, Eps2: 0.9}
	post := nb.Posteriors()
	if post[0] <= post[1] {
		t.Errorf("high-prior pair lost: %v vs %v", post[0], post[1])
	}
	if post[0]+post[1] > 1+1e-9 {
		t.Errorf("column used twice: %v + %v > 1", post[0], post[1])
	}
}

// --- Probabilistic graph + Algorithm 2 ---

// chainGraph builds a KB pair with a linear chain of entities:
// a0 -r-> a1 -r-> a2 ... so the ER graph on diagonal pairs is a path.
func chainGraph(n int, extraWrong bool) (*ergraph.Graph, *kb.KB, *kb.KB, []pair.Pair) {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	r1 := k1.AddRel("next")
	r2 := k2.AddRel("next")
	var vs []pair.Pair
	for i := 0; i < n; i++ {
		u1 := k1.AddEntity(string(rune('a' + i)))
		u2 := k2.AddEntity(string(rune('a' + i)))
		vs = append(vs, pair.Pair{U1: u1, U2: u2})
	}
	for i := 0; i+1 < n; i++ {
		k1.AddRelTriple(vs[i].U1, r1, vs[i+1].U1)
		k2.AddRelTriple(vs[i].U2, r2, vs[i+1].U2)
	}
	verts := append([]pair.Pair(nil), vs...)
	if extraWrong {
		// A cross pair (a1, b2) competing with the chain.
		verts = append(verts, pair.Pair{U1: vs[1].U1, U2: vs[2].U2})
	}
	return ergraph.Build(k1, k2, verts), k1, k2, vs
}

func strongParams(g *ergraph.Graph) Params {
	cons := map[ergraph.RelPair]consistency.Estimate{}
	for _, l := range g.Labels() {
		cons[l] = consistency.Estimate{Eps1: 0.95, Eps2: 0.95}
	}
	return Params{Consistency: cons}
}

func TestBuildProbChain(t *testing.T) {
	g, k1, k2, vs := chainGraph(4, false)
	pg := BuildProb(g, k1, k2, strongParams(g))
	// Functional chain: each hop should be highly probable.
	for i := 0; i+1 < len(vs); i++ {
		p := pg.Prob(vs[i], vs[i+1])
		if p < 0.9 {
			t.Errorf("hop %d→%d probability = %v, want ≥ 0.9", i, i+1, p)
		}
	}
	// Backward propagation flows through the materialized inverse
	// relationship and is equally strong on a functional chain.
	if p := pg.Prob(vs[1], vs[0]); p < 0.9 {
		t.Errorf("inverse edge probability = %v, want ≥ 0.9", p)
	}
}

func TestInferAllDistantPropagation(t *testing.T) {
	g, k1, k2, vs := chainGraph(5, false)
	pg := BuildProb(g, k1, k2, strongParams(g))
	// With τ = 0.8 and per-hop ≈ 0.97+, two hops stay above the bound.
	ball := pg.InferAll(0.8).Ball(0)
	// propagated returns Pr[m_j | m_0] = e^{−dist(0,j)}, 0 outside the ball.
	propagated := func(j int32) float64 {
		for _, en := range ball {
			if en.Idx == j {
				return math.Exp(-en.Dist)
			}
		}
		return 0
	}
	p1, p2 := propagated(1), propagated(2)
	if p1 == 0 {
		t.Fatalf("direct neighbor not inferred (ball=%v)", ball)
	}
	if p2 == 0 {
		t.Errorf("two-hop pair not inferred; per-hop prob %v", pg.Prob(vs[0], vs[1]))
	}
	// Path probability must multiply along the chain (Markov bound).
	if p2 > p1+1e-9 {
		t.Errorf("two-hop probability %v exceeds one-hop %v", p2, p1)
	}
	if propagated(0) != 0 {
		t.Errorf("a ball must exclude its own source")
	}
}

func TestInferAllMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		// Random sparse probabilistic graph.
		n := 8 + rng.Intn(8)
		k1 := kb.New("k1")
		k2 := kb.New("k2")
		var verts []pair.Pair
		for i := 0; i < n; i++ {
			verts = append(verts, pair.Pair{U1: k1.AddEntity(string(rune('a' + i))), U2: k2.AddEntity(string(rune('a' + i)))})
		}
		g := ergraph.Build(k1, k2, verts)
		adj := make([]map[int]float64, n)
		for i := range adj {
			adj[i] = map[int]float64{}
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.3 {
					adj[i][j] = 0.85 + 0.15*rng.Float64()
				}
			}
		}
		pg := probGraphFromAdj(g, adj)
		tau := 0.75
		inf := pg.InferAllFW(tau)
		infD := pg.InferAll(tau)
		sc := getScratch(n)
		for q := 0; q < n; q++ {
			want := pg.inferFromIndex(q, zetaOf(tau), sc, nil) // one single-source run
			if len(infD.Ball(q)) != len(want) {
				t.Fatalf("iter %d src %d: Dijkstra-all found %d, single-source %d",
					iter, q, len(infD.Ball(q)), len(want))
			}
			got := inf.Ball(q)
			if len(got) != len(want) {
				t.Fatalf("iter %d src %d: FW found %d, Dijkstra %d", iter, q, len(got), len(want))
			}
			for k, w := range want {
				if got[k].Idx != w.Idx || math.Abs(got[k].Dist-w.Dist) > 1e-9 {
					t.Fatalf("iter %d src %d entry %d: FW %+v, Dijkstra %+v", iter, q, k, got[k], w)
				}
			}
		}
	}
}

func TestWrongPairGetsLowProbability(t *testing.T) {
	g, k1, k2, vs := chainGraph(4, true)
	pg := BuildProb(g, k1, k2, strongParams(g))
	wrong := pair.Pair{U1: vs[1].U1, U2: vs[2].U2}
	right := vs[1]
	// From vertex 0, the correct successor (a1,b1) must beat (a1,b2).
	pRight := pg.Prob(vs[0], right)
	pWrong := pg.Prob(vs[0], wrong)
	if pWrong >= pRight {
		t.Errorf("wrong pair %v ≥ right pair %v", pWrong, pRight)
	}
}
