package consistency

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestFitFunctionalProperty(t *testing.T) {
	// A functional property (birth place): every match has exactly one
	// value on each side and they always correspond ⇒ ε near 1 (clamped to
	// MaxEps).
	var obs []Observation
	for i := 0; i < 50; i++ {
		obs = append(obs, Observation{N1: 1, N2: 1, KnownL: 1})
	}
	e := Fit(obs, DefaultOptions())
	if e.Eps1 < 0.9 || e.Eps2 < 0.9 {
		t.Errorf("functional property: ε = (%v, %v), want near max", e.Eps1, e.Eps2)
	}
}

func TestFitRecoverySynthetic(t *testing.T) {
	// Generate observations from the generative model with known ε and
	// check the estimator recovers it within tolerance.
	rng := rand.New(rand.NewSource(3))
	for _, trueEps := range []float64{0.3, 0.6, 0.9} {
		var obs []Observation
		for i := 0; i < 400; i++ {
			n := 1 + rng.Intn(6)
			l := 0
			for j := 0; j < n; j++ {
				if rng.Float64() < trueEps {
					l++
				}
			}
			// Symmetric sets: both sides size n, l matched.
			obs = append(obs, Observation{N1: n, N2: n, KnownL: l})
		}
		e := FromCounts(obs, DefaultOptions())
		if math.Abs(e.Eps1-trueEps) > 0.07 {
			t.Errorf("FromCounts: ε=%v, want ≈%v", e.Eps1, trueEps)
		}
		// The latent-variable Fit with KnownL as lower bound should land at
		// or above the direct estimate (it may explain more pairs as
		// matched, never fewer).
		f := Fit(obs, DefaultOptions())
		if f.Eps1 < e.Eps1-0.05 {
			t.Errorf("Fit ε=%v below FromCounts ε=%v for true=%v", f.Eps1, e.Eps1, trueEps)
		}
	}
}

func TestFitNoObservations(t *testing.T) {
	e := Fit(nil, DefaultOptions())
	if e.Eps1 != 0.5 || e.Eps2 != 0.5 {
		t.Errorf("no data should give ε=0.5, got (%v,%v)", e.Eps1, e.Eps2)
	}
	e = Fit([]Observation{{N1: 0, N2: 0}}, DefaultOptions())
	if e.Eps1 != 0.5 || e.Eps2 != 0.5 {
		t.Errorf("empty sets should give ε=0.5, got (%v,%v)", e.Eps1, e.Eps2)
	}
}

func TestFitAsymmetricSides(t *testing.T) {
	// Side 1 has 4 values per entity, side 2 has 1, all side-2 values
	// matched: ε2 should be much higher than ε1.
	var obs []Observation
	for i := 0; i < 60; i++ {
		obs = append(obs, Observation{N1: 4, N2: 1, KnownL: 1})
	}
	e := FromCounts(obs, DefaultOptions())
	if e.Eps2 <= e.Eps1 {
		t.Errorf("ε2 (%v) should exceed ε1 (%v)", e.Eps2, e.Eps1)
	}
	if e.Eps1 > 0.35 {
		t.Errorf("ε1 = %v, want ≈ 0.25", e.Eps1)
	}
}

func TestEstimatesClamped(t *testing.T) {
	opts := DefaultOptions()
	var obs []Observation
	for i := 0; i < 100; i++ {
		obs = append(obs, Observation{N1: 3, N2: 3, KnownL: 0})
	}
	e := Fit(obs, opts)
	if e.Eps1 < opts.MinEps || e.Eps1 > opts.MaxEps || e.Eps2 < opts.MinEps || e.Eps2 > opts.MaxEps {
		t.Errorf("estimates out of clamp range: %+v", e)
	}
}

func TestBestLRespectsKnownL(t *testing.T) {
	o := Observation{N1: 5, N2: 5, KnownL: 3}
	// Strongly negative odds push L down, but the floor holds.
	if got := bestL(o, -10); got < 3 {
		t.Errorf("bestL = %d, want ≥ 3", got)
	}
	// Strongly positive odds push to the max.
	if got := bestL(o, 10); got != 5 {
		t.Errorf("bestL = %d, want 5", got)
	}
}

func TestLogChoose(t *testing.T) {
	if v := logChoose(5, 2); math.Abs(v-math.Log(10)) > 1e-9 {
		t.Errorf("logChoose(5,2) = %v, want log 10", v)
	}
	if v := logChoose(3, 5); !math.IsInf(v, -1) {
		t.Errorf("logChoose(3,5) = %v, want -Inf", v)
	}
	if v := logChoose(4, 0); v != 0 {
		t.Errorf("logChoose(4,0) = %v, want 0", v)
	}
}

func TestLikelihoodImprovesOverIterations(t *testing.T) {
	// Fit's result must have likelihood at least as good as a single
	// iteration from the same starts.
	rng := rand.New(rand.NewSource(9))
	var obs []Observation
	for i := 0; i < 100; i++ {
		n1, n2 := 1+rng.Intn(4), 1+rng.Intn(4)
		l := rng.Intn(min(n1, n2) + 1)
		obs = append(obs, Observation{N1: n1, N2: n2, KnownL: l})
	}
	e := Fit(obs, DefaultOptions())
	direct := FromCounts(obs, DefaultOptions())
	if e.LogLikelihood < direct.LogLikelihood-1e-6 {
		t.Errorf("Fit LL %v worse than FromCounts LL %v", e.LogLikelihood, direct.LogLikelihood)
	}
}

// TestFitConcurrentSharesLogFactTable is the regression test for the data
// race on the shared log-factorial table: the pipeline fits labels
// concurrently, and fits with value sets larger than the table has seen
// make it grow mid-run. Run under -race; the value sets are larger than
// any other test's, so the growth happens here whatever ran before.
func TestFitConcurrentSharesLogFactTable(t *testing.T) {
	observations := func(g int) []Observation {
		return []Observation{{N1: 400 + 60*g, N2: 380 + 60*g, KnownL: 3}, {N1: 40, N2: 45}, {N1: 41 + g, N2: 3}}
	}
	const fits = 4
	got := make([]Estimate, fits)
	var wg sync.WaitGroup
	for g := 0; g < fits; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = Fit(observations(g), DefaultOptions())
		}(g)
	}
	wg.Wait()
	for g := range got {
		want := Fit(observations(g), DefaultOptions())
		if got[g].Eps1 != want.Eps1 || got[g].Eps2 != want.Eps2 || got[g].LogLikelihood != want.LogLikelihood {
			t.Errorf("fit %d: concurrent %+v, serial %+v", g, got[g], want)
		}
	}
	// However the table grew, entry n is the same left-to-right sum.
	sum := 0.0
	for n := 1; n <= 700; n++ {
		sum += math.Log(float64(n))
		if logFact(n) != sum {
			t.Fatalf("logFact(%d) = %v, cumulative sum %v", n, logFact(n), sum)
		}
	}
}

// oracleLogLikelihood is the total log of Eq. (4) in its plainest form:
// row by row, one math.Log per term.
func oracleLogLikelihood(obs []Observation, latent []int, e1, e2 float64) float64 {
	ll := 0.0
	for i, o := range obs {
		l := latent[i]
		ll += logChoose(o.N1, l) + logChoose(o.N2, l)
		ll += float64(l)*math.Log(e1) + float64(o.N1-l)*math.Log(1-e1)
		ll += float64(l)*math.Log(e2) + float64(o.N2-l)*math.Log(1-e2)
	}
	return ll
}

// oracleFit is Fit over oracleLogLikelihood, row by row: every iteration
// fits L and adds the rates and the likelihood per row.
func oracleFit(obs []Observation, opts Options) Estimate {
	opts.fill()
	best := Estimate{Eps1: 0.5, Eps2: 0.5}
	informative := false
	for _, o := range obs {
		informative = informative || o.N1 != 0 || o.N2 != 0
	}
	if !informative {
		return best
	}
	best.LogLikelihood = math.Inf(-1)
	for _, start := range []float64{0.25, 0.5, 0.75, 0.9} {
		e1, e2, ll := start, start, 0.0
		latent := make([]int, len(obs))
		for iter := 0; iter < opts.MaxIters; iter++ {
			logOdds := math.Log(e1/(1-e1)) + math.Log(e2/(1-e2))
			sumL, sumN1, sumN2 := opts.PseudoCount*0.5, opts.PseudoCount, opts.PseudoCount
			for i, o := range obs {
				latent[i] = bestL(o, logOdds)
				sumL += float64(latent[i])
				sumN1 += float64(o.N1)
				sumN2 += float64(o.N2)
			}
			e1 = clamp(sumL/sumN1, opts.MinEps, opts.MaxEps)
			e2 = clamp(sumL/sumN2, opts.MinEps, opts.MaxEps)
			prev := ll
			ll = oracleLogLikelihood(obs, latent, e1, e2)
			if iter > 0 && ll <= prev+1e-12 {
				break
			}
		}
		if ll > best.LogLikelihood {
			best = Estimate{Eps1: e1, Eps2: e2, LogLikelihood: ll}
		}
	}
	return best
}

// repeatedKinds draws a list of up to maxRows rows over 1–20 distinct
// observations, the shape of a loop's refits (a few kinds, many rows);
// known lower bounds may exceed min(N1, N2).
func repeatedKinds(rng *rand.Rand, maxRows, maxN int) []Observation {
	kinds := make([]Observation, 1+rng.Intn(20))
	for k := range kinds {
		n1, n2 := rng.Intn(maxN+1), rng.Intn(maxN+1)
		kinds[k] = Observation{N1: n1, N2: n2, KnownL: rng.Intn(min(n1, n2)+4) - 1}
	}
	obs := make([]Observation, 1+rng.Intn(maxRows))
	for i := range obs {
		obs[i] = kinds[rng.Intn(len(kinds))]
	}
	return obs
}

// TestFitMatchesPerObservationLogs pins the grouped fit and the hoisted
// logarithms: over random observation lists — empty ones, uninformative
// ones, known lower bounds above min(N1, N2), and lists that repeat a few
// observations over thousands of rows — Fit and FromCounts return the bits
// the row-by-row, per-observation form returns.
func TestFitMatchesPerObservationLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(trial int, obs []Observation) {
		t.Helper()
		got, want := Fit(obs, DefaultOptions()), oracleFit(obs, DefaultOptions())
		if !same(got.Eps1, want.Eps1) || !same(got.Eps2, want.Eps2) || !same(got.LogLikelihood, want.LogLikelihood) {
			t.Fatalf("trial %d: Fit(%v) = (%v, %v, %v), per-observation logs give (%v, %v, %v)",
				trial, obs, got.Eps1, got.Eps2, got.LogLikelihood, want.Eps1, want.Eps2, want.LogLikelihood)
		}
		direct := FromCounts(obs, DefaultOptions())
		known := make([]int, len(obs))
		for i, o := range obs {
			known[i] = max(o.KnownL, 0)
		}
		if ll := oracleLogLikelihood(obs, known, direct.Eps1, direct.Eps2); !same(direct.LogLikelihood, ll) {
			t.Fatalf("trial %d: FromCounts(%v) log-likelihood %v, per-observation logs give %v", trial, obs, direct.LogLikelihood, ll)
		}
	}
	for trial := 0; trial < 400; trial++ {
		obs := make([]Observation, rng.Intn(40))
		for i := range obs {
			obs[i] = Observation{N1: rng.Intn(12), N2: rng.Intn(12), KnownL: rng.Intn(16) - 2}
			if trial%7 == 0 {
				obs[i].N1, obs[i].N2 = 0, 0
			}
		}
		check(trial, obs)
	}
	for trial := 0; trial < 10; trial++ {
		check(400+trial, repeatedKinds(rng, 3000, 150))
	}
}

// TestFitRemembersLatentVectors covers the likelihood memo: Fit's starts
// reach latent vectors an earlier start scored, and a start run against
// the shared memo returns the bits it returns scoring every vector afresh.
func TestFitRemembersLatentVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := DefaultOptions()
	reused := 0
	for trial := 0; trial < 50; trial++ {
		obs := repeatedKinds(rng, 500, 12)
		shared := group(obs, opts)
		for _, start := range starts {
			fresh := group(obs, opts)
			before := len(shared.seenLL)
			got := shared.fitFrom(make([]int, len(shared.kinds)), start, start)
			want := fresh.fitFrom(make([]int, len(fresh.kinds)), start, start)
			if got != want {
				t.Fatalf("trial %d, start %v: with the memo %+v, without %+v", trial, start, got, want)
			}
			if len(shared.seenLL)-before < len(fresh.seenLL) {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("no start reached a latent vector an earlier start had scored")
	}
}
