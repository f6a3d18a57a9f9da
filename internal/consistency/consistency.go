// Package consistency estimates the consistency parameters (ε1, ε2) of a
// relationship pair (r1, r2) as defined in §V-A (Eq. 3–5): given an entity
// match (u1,u2), ε1 is the probability that a value u1′ ∈ N_r1(u1) has a
// matching counterpart in N_r2(u2), and symmetrically for ε2. The paper
// maximizes the likelihood (4) over ε1, ε2 and one latent integer L per
// initial match by analyzing an O(L_M^4)-piecewise continuous function; we
// reach the same stationary points with alternating exact coordinate
// optimization (closed-form ε given L, exhaustive integer scan for L given
// ε), restarted from several initial values — see DESIGN.md §4.
package consistency

import (
	"math"
	"sync"
	"sync/atomic"
)

// Observation is one initial entity match's view of a relationship pair:
// the sizes of the two value sets and, optionally, a known lower bound on
// the number of matched values between them (from already-confirmed
// matches; -1 when unknown).
type Observation struct {
	N1, N2 int
	KnownL int // lower bound for the latent L; use -1 or 0 when unknown
}

// Estimate holds fitted consistency parameters.
type Estimate struct {
	Eps1, Eps2    float64
	LogLikelihood float64
	Latent        []int // fitted L per observation
}

// Options tunes the estimator.
type Options struct {
	// MinEps / MaxEps clamp the estimates away from 0 and 1 so that
	// downstream log-probabilities stay finite. Defaults 0.05 / 0.95.
	MinEps, MaxEps float64
	// PseudoCount adds smoothing observations toward ε=0.5, stabilizing
	// labels with very little evidence. Default 1.
	PseudoCount float64
	// MaxIters bounds the alternating optimization. Default 50.
	MaxIters int
}

// DefaultOptions returns the defaults described above.
func DefaultOptions() Options {
	return Options{MinEps: 0.05, MaxEps: 0.95, PseudoCount: 1, MaxIters: 50}
}

func (o *Options) fill() {
	if o.MinEps == 0 {
		o.MinEps = 0.05
	}
	if o.MaxEps == 0 {
		o.MaxEps = 0.95
	}
	if o.PseudoCount == 0 {
		o.PseudoCount = 1
	}
	if o.MaxIters == 0 {
		o.MaxIters = 50
	}
}

// Fit estimates (ε1, ε2) from the observations by maximizing Eq. (5). It
// runs the alternating optimization from several starting points and keeps
// the best likelihood. With no informative observations it returns
// ε1 = ε2 = 0.5.
func Fit(obs []Observation, opts Options) Estimate {
	opts.fill()
	sum1, sum2 := 0, 0
	for _, o := range obs {
		sum1 += o.N1
		sum2 += o.N2
	}
	if sum1 == 0 && sum2 == 0 {
		return Estimate{Eps1: 0.5, Eps2: 0.5, Latent: make([]int, len(obs))}
	}

	best := Estimate{LogLikelihood: math.Inf(-1)}
	for _, start := range []float64{0.25, 0.5, 0.75, 0.9} {
		e := fitFrom(obs, start, start, opts)
		if e.LogLikelihood > best.LogLikelihood {
			best = e
		}
	}
	return best
}

// fitFrom runs one alternating optimization from (e1, e2).
func fitFrom(obs []Observation, e1, e2 float64, opts Options) Estimate {
	latent := make([]int, len(obs))
	var ll float64
	for iter := 0; iter < opts.MaxIters; iter++ {
		// E-like step: best integer L per observation given (e1, e2).
		logOdds := math.Log(e1/(1-e1)) + math.Log(e2/(1-e2))
		for i, o := range obs {
			latent[i] = bestL(o, logOdds)
		}
		// M-like step: closed-form binomial rates with smoothing.
		sumL, sumN1, sumN2 := opts.PseudoCount*0.5, opts.PseudoCount, opts.PseudoCount
		sumL2 := opts.PseudoCount * 0.5
		for i, o := range obs {
			sumL += float64(latent[i])
			sumL2 += float64(latent[i])
			sumN1 += float64(o.N1)
			sumN2 += float64(o.N2)
		}
		ne1 := clamp(sumL/sumN1, opts.MinEps, opts.MaxEps)
		ne2 := clamp(sumL2/sumN2, opts.MinEps, opts.MaxEps)
		newLL := logLikelihood(obs, latent, ne1, ne2)
		if iter > 0 && newLL <= ll+1e-12 {
			e1, e2, ll = ne1, ne2, newLL
			break
		}
		e1, e2, ll = ne1, ne2, newLL
	}
	return Estimate{Eps1: e1, Eps2: e2, LogLikelihood: ll, Latent: latent}
}

// bestL scans the admissible integer range for the latent variable of one
// observation and returns the maximizer of
// log C(n1,L) + log C(n2,L) + L·logOdds.
//
//remp:hotpath
func bestL(o Observation, logOdds float64) int {
	lm := o.N1
	if o.N2 < lm {
		lm = o.N2
	}
	lo := 0
	if o.KnownL > 0 {
		lo = o.KnownL
		if lo > lm {
			lo = lm
		}
	}
	bestL, bestV := lo, math.Inf(-1)
	for l := lo; l <= lm; l++ {
		v := logChoose(o.N1, l) + logChoose(o.N2, l) + float64(l)*logOdds
		if v > bestV {
			bestV, bestL = v, l
		}
	}
	return bestL
}

// logLikelihood evaluates the total log of Eq. (4) across observations.
// The four logarithms are the same for every observation and taken once;
// each term keeps its operands and its place in the sum, so the result is
// the bits the per-observation form produces.
//
//remp:hotpath
func logLikelihood(obs []Observation, latent []int, e1, e2 float64) float64 {
	logE1, logNotE1 := math.Log(e1), math.Log(1-e1)
	logE2, logNotE2 := math.Log(e2), math.Log(1-e2)
	ll := 0.0
	for i, o := range obs {
		l := latent[i]
		ll += logChoose(o.N1, l) + logChoose(o.N2, l)
		ll += float64(l)*logE1 + float64(o.N1-l)*logNotE1
		ll += float64(l)*logE2 + float64(o.N2-l)*logNotE2
	}
	return ll
}

// logChoose returns log C(n,k), or -Inf when out of range.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFact(n) - logFact(k) - logFact(n-k)
}

// logFactTable is the shared table of log n!: entry n is the cumulative
// sum log 1 + … + log n, added in that order, so every table — whatever
// sequence of calls grew it — holds the same bits. Fits run concurrently
// (the pipeline fans labels across its scheduler, and sessions share the
// process), so a published table is immutable: readers load it without
// locking, and growth copies it into a larger one under logFactMu.
var (
	logFactTable atomic.Pointer[[]float64]
	logFactMu    sync.Mutex
)

func logFact(n int) float64 {
	if t := logFactTable.Load(); t != nil && n < len(*t) {
		return (*t)[n]
	}
	logFactMu.Lock()
	defer logFactMu.Unlock()
	var table []float64
	if t := logFactTable.Load(); t != nil {
		table = *t
	}
	if n >= len(table) { // unless another goroutine grew it meanwhile
		grown := make([]float64, max(n+1, 2*len(table), 64))
		copy(grown, table)
		for i := max(len(table), 1); i < len(grown); i++ {
			grown[i] = grown[i-1] + math.Log(float64(i))
		}
		logFactTable.Store(&grown)
		table = grown
	}
	return table[n]
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FromCounts is the direct estimator used when the matched-value counts are
// fully observed (e.g. from ground-truth seeds in the Table VI setting):
// ε_i = ΣL / Σn_i, clamped.
func FromCounts(obs []Observation, opts Options) Estimate {
	opts.fill()
	sumL := opts.PseudoCount * 0.5
	sumN1 := opts.PseudoCount
	sumN2 := opts.PseudoCount
	latent := make([]int, len(obs))
	for i, o := range obs {
		l := o.KnownL
		if l < 0 {
			l = 0
		}
		latent[i] = l
		sumL += float64(l)
		sumN1 += float64(o.N1)
		sumN2 += float64(o.N2)
	}
	e1 := clamp(sumL/sumN1, opts.MinEps, opts.MaxEps)
	e2 := clamp(sumL/sumN2, opts.MinEps, opts.MaxEps)
	return Estimate{Eps1: e1, Eps2: e2, LogLikelihood: logLikelihood(obs, latent, e1, e2), Latent: latent}
}
