// Package consistency estimates the consistency parameters (ε1, ε2) of a
// relationship pair (r1, r2) as defined in §V-A (Eq. 3–5): given an entity
// match (u1,u2), ε1 is the probability that a value u1′ ∈ N_r1(u1) has a
// matching counterpart in N_r2(u2), and symmetrically for ε2. The paper
// maximizes the likelihood (4) over ε1, ε2 and one latent integer L per
// initial match by analyzing an O(L_M^4)-piecewise continuous function; we
// reach the same stationary points with alternating exact coordinate
// optimization (closed-form ε given L, exhaustive integer scan for L given
// ε), restarted from several initial values, since coordinate ascent can stop
// at a local optimum.
package consistency

import (
	"math"
	"slices"
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
//
// An iteration costs the distinct observations (kinds), not the rows: the
// latent L is fitted once per kind, ΣL is Σ count·L, and the likelihood of
// a latent vector already scored in this call is remembered. The result is
// the bits of the row-by-row form whenever PseudoCount/2 + ΣL is exact in
// floating point, as with the default PseudoCount of 1.
func Fit(obs []Observation, opts Options) Estimate {
	opts.fill()
	g := group(obs, opts)
	if !slices.ContainsFunc(g.kinds, func(o Observation) bool { return o.N1 != 0 || o.N2 != 0 }) {
		return Estimate{Eps1: 0.5, Eps2: 0.5}
	}
	best := Estimate{LogLikelihood: math.Inf(-1)}
	latent := make([]int, len(g.kinds))
	for _, start := range starts {
		e := g.fitFrom(latent, start, start)
		if e.LogLikelihood > best.LogLikelihood {
			best = e
		}
	}
	return best
}

// starts are the initial (ε1 = ε2) values Fit optimizes from.
var starts = [...]float64{0.25, 0.5, 0.75, 0.9}

// grouped is one call's observations grouped by kind, with the
// likelihoods of the per-kind latent vectors scored so far.
type grouped struct {
	opts         Options
	kinds        []Observation // distinct observations, in first-occurrence order
	count        []int         // rows per kind
	rowKind      []int32       // each row's kind, in row order
	sumN1, sumN2 float64       // PseudoCount + ΣN1 (ΣN2), summed in row order
	terms        [][3]float64  // scratch: each kind's three likelihood terms
	seen         []int         // latent vectors scored, len(kinds) each
	seenLL       []float64     // their log-likelihoods
}

// group maps the rows to kinds. Kinds are found by a linear scan: a
// label's list holds one or two kinds on Scale and at most a few dozen on
// the paper's datasets, however many rows it has. The capacities fit the
// common case — a handful of kinds, and the few latent vectors the four
// starts meet at — in one allocation each.
func group(obs []Observation, opts Options) grouped {
	g := grouped{opts: opts, rowKind: make([]int32, len(obs)), sumN1: opts.PseudoCount, sumN2: opts.PseudoCount,
		kinds: make([]Observation, 0, 8), count: make([]int, 0, 8)}
	for i, o := range obs {
		k := slices.Index(g.kinds, o)
		if k < 0 {
			k = len(g.kinds)
			g.kinds = append(g.kinds, o)
			g.count = append(g.count, 0)
		}
		g.count[k]++
		g.rowKind[i] = int32(k)
		g.sumN1 += float64(o.N1)
		g.sumN2 += float64(o.N2)
	}
	g.terms = make([][3]float64, len(g.kinds))
	g.seen, g.seenLL = make([]int, 0, 4*len(g.kinds)), make([]float64, 0, 4)
	return g
}

// fitFrom runs one alternating optimization from (e1, e2), with latent as
// its per-kind scratch.
func (g *grouped) fitFrom(latent []int, e1, e2 float64) Estimate {
	var ll float64
	for iter := 0; iter < g.opts.MaxIters; iter++ {
		// E-like step: best integer L per kind given (e1, e2).
		logOdds := math.Log(e1/(1-e1)) + math.Log(e2/(1-e2))
		for k, o := range g.kinds {
			latent[k] = bestL(o, logOdds)
		}
		ne1, ne2, newLL := g.score(latent)
		converged := iter > 0 && newLL <= ll+1e-12
		e1, e2, ll = ne1, ne2, newLL
		if converged {
			break
		}
	}
	return Estimate{Eps1: e1, Eps2: e2, LogLikelihood: ll}
}

// score is the M-like step — closed-form binomial rates with smoothing —
// and the total log of Eq. (4) at them. Both depend on the latent vector
// alone, so a vector scored before returns its remembered likelihood.
// The per-kind terms are the expressions the per-row form evaluates, and
// sumRows adds them in row order, so the sum keeps its bits.
func (g *grouped) score(latent []int) (e1, e2, ll float64) {
	sumL := 0
	for k, l := range latent {
		sumL += g.count[k] * l
	}
	matched := g.opts.PseudoCount*0.5 + float64(sumL)
	e1 = clamp(matched/g.sumN1, g.opts.MinEps, g.opts.MaxEps)
	e2 = clamp(matched/g.sumN2, g.opts.MinEps, g.opts.MaxEps)
	n := len(latent)
	for i, prev := range g.seenLL {
		if slices.Equal(g.seen[i*n:(i+1)*n], latent) {
			return e1, e2, prev
		}
	}
	logE1, logNotE1 := math.Log(e1), math.Log(1-e1)
	logE2, logNotE2 := math.Log(e2), math.Log(1-e2)
	for k, o := range g.kinds {
		l := latent[k]
		g.terms[k] = [3]float64{
			logChoose(o.N1, l) + logChoose(o.N2, l),
			float64(l)*logE1 + float64(o.N1-l)*logNotE1,
			float64(l)*logE2 + float64(o.N2-l)*logNotE2,
		}
	}
	ll = sumRows(g.rowKind, g.terms)
	g.seen = append(g.seen, latent...)
	g.seenLL = append(g.seenLL, ll)
	return e1, e2, ll
}

// bestL returns the maximizer of
//
//	v(L) = log C(n1,L) + log C(n2,L) + L·logOdds
//
// over the admissible integers, KnownL (at least 0) to min(n1, n2), the
// smallest on a tie. It reads the log-factorial table once, scans up from
// the low end and stops once v(L) falls below the best value so far by
// more than
//
//	margin = 2^-45 · m² · (m + |logOdds|),  m = max(n1, n2) + 1,
//
// which returns the full scan's L bit for bit:
//
//   - The exact v is strictly concave in L: v(L+1) − v(L) =
//     log((n1−L)/(L+1)) + log((n2−L)/(L+1)) + logOdds falls as L grows.
//   - The computed v is off by at most e = 13 · 2^-52 · m² · (m + |logOdds|),
//     under margin/2. A table entry k ≤ m is k rounded logs and k rounded
//     additions, each off by at most 2^-52 · k·ln k ≤ 2^-52 · m², so by
//     2^-52 · m³; v reads six entries, and its seven operations each round
//     by 2^-53 of at most 2m² + m·|logOdds|.
//   - So when the computed v(L) is below best − margin, the exact v(L) is
//     below the exact v at the best L found, which lies before L; by
//     concavity every later exact v(L′) is below the exact v(L), so the
//     computed v(L′) < v(L) + 2e < best − margin + 2e < best, and the full
//     scan would not move from the best either.
//
//remp:hotpath
func bestL(o Observation, logOdds float64) int {
	lm := min(o.N1, o.N2)
	lo := min(max(o.KnownL, 0), lm)
	t := logFacts(max(o.N1, o.N2))
	m := float64(max(o.N1, o.N2) + 1)
	margin := 0x1p-45 * m * m * (m + math.Abs(logOdds))
	bestL, bestV := lo, math.Inf(-1)
	for l := lo; l <= lm; l++ {
		v := t[o.N1] - t[l] - t[o.N1-l] + (t[o.N2] - t[l] - t[o.N2-l]) + float64(l)*logOdds
		if v > bestV {
			bestV, bestL = v, l
		} else if v < bestV-margin {
			break
		}
	}
	return bestL
}

// sumRows adds each row's three likelihood terms, in row order.
//
//remp:hotpath
func sumRows(rowKind []int32, terms [][3]float64) float64 {
	ll := 0.0
	for _, k := range rowKind {
		ll += terms[k][0]
		ll += terms[k][1]
		ll += terms[k][2]
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
// (the pipeline fans labels out on par.Pool, and sessions share the
// process), so a published table is immutable: readers load it without
// locking, and growth copies it into a larger one under logFactMu.
var (
	logFactTable atomic.Pointer[[]float64]
	logFactMu    sync.Mutex
)

func logFact(n int) float64 { return logFacts(n)[n] }

// logFacts returns the table, grown to hold entry n if it is shorter.
func logFacts(n int) []float64 {
	if t := logFactTable.Load(); t != nil && n < len(*t) {
		return *t
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
	return table
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
// ε_i = ΣL / Σn_i, clamped, with L = max(KnownL, 0).
func FromCounts(obs []Observation, opts Options) Estimate {
	opts.fill()
	g := group(obs, opts)
	latent := make([]int, len(g.kinds))
	for k, o := range g.kinds {
		latent[k] = max(o.KnownL, 0)
	}
	e1, e2, ll := g.score(latent)
	return Estimate{Eps1: e1, Eps2: e2, LogLikelihood: ll}
}
