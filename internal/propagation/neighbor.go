// Package propagation implements relational match propagation (§V): given
// a labeled match, the posterior match probabilities of its neighbors are
// obtained by marginalizing Eq. (6)–(9) over injective partial matchings
// between the two value sets, and distant pairs are reached through the
// Markov-chain path bound of Eq. (10) evaluated with the bounded all-pairs
// shortest-path procedure of Algorithm 2. Its output has one container,
// the Engine: InferAll returns an engine's first build (Inferred is
// Engine), which the human–machine loop then keeps up to date
// incrementally.
package propagation

import (
	"math"

	"repro/internal/pair"
)

// CandidatePair is one potential match between the value sets of a
// relationship pair, carrying its prior match probability. Idx is the
// dense ER-graph index of Pair (−1 when the pair is not a graph vertex),
// so recording a posterior needs no pair lookup.
type CandidatePair struct {
	Row   int // index into the side-1 value list
	Col   int // index into the side-2 value list
	Pair  pair.Pair
	Prior float64
	Idx   int32
}

// Neighborhood describes the propagation instance around one matched
// vertex and one edge label (r1, r2): the candidate pairs among the two
// value sets N_r1(u1), N_r2(u2) that are ER-graph vertices, and the
// label's consistency. The value-set sizes are not part of it: their
// factors are common to every match set and cancel (see Posteriors).
type Neighborhood struct {
	Cands      []CandidatePair
	Eps1, Eps2 float64
}

// MaxExactSide is the largest per-side candidate dimension for which the
// posterior is computed exactly by bitmask dynamic programming; larger
// neighborhoods use the local-exclusion approximation, since the DP's
// state count doubles with every candidate on a side.
const MaxExactSide = 12

// Posteriors returns Pr[m_p | m_v] for every candidate pair p in the
// neighborhood, in the order of nb.Cands.
//
// Derivation: with priors clamped to (0,1), every injective match set M
// has weight f(M)·g(M|N1)·g(M|N2) ∝ ∏_{p∈M} w_p, where
//
//	w_p = prior(p)/(1−prior(p)) · ε1/(1−ε1) · ε2/(1−ε2),
//
// because |π1(M)| = |π2(M)| = |M| and the remaining factors are common to
// all M. The posterior of p is then the ratio of matching "permanents":
// Pr[m_p | m_v] = w_p · Z(without row/col of p) / Z(all).
func (nb *Neighborhood) Posteriors() []float64 {
	if len(nb.Cands) == 0 {
		return nil
	}
	var ms matchScratch
	return ms.posteriors(nb.Cands, nb.Eps1, nb.Eps2, false)
}

// matchScratch is the reusable state of one neighborhood's posterior
// computation: the candidate weights and results, the candidates bucketed
// by row, and the two dense DP state arrays. One scratch serves every
// (vertex, label) of a BuildProb or a rewrite, so the steady state
// allocates nothing.
type matchScratch struct {
	weights []float64
	post    []float64
	rowOff  []int32 // cells of row r are cells[rowOff[r]:rowOff[r+1]]
	cells   []cell
	cur     []float64 // DP states indexed by used-column mask
	next    []float64
	rowSum  []float64 // approximation only
	colSum  []float64
}

// posteriors computes Pr[m_p | m_v] for every candidate into the
// scratch's result slice, valid until the next call. forceApprox selects
// the local-exclusion approximation whatever the dimensions (instances
// above maxExactCandidates).
//
//remp:hotpath
func (s *matchScratch) posteriors(cands []CandidatePair, eps1, eps2 float64, forceApprox bool) []float64 {
	n := len(cands)
	if cap(s.weights) < n {
		s.weights = make([]float64, n)
		s.post = make([]float64, n)
	}
	weights, post := s.weights[:n], s.post[:n]
	e1 := clampProb(eps1)
	e2 := clampProb(eps2)
	for i, c := range cands {
		prior := clampProb(c.Prior)
		weights[i] = prior / (1 - prior) * e1 / (1 - e1) * e2 / (1 - e2)
	}
	rows, cols := dimensions(cands)
	if !forceApprox && (rows <= MaxExactSide || cols <= MaxExactSide) {
		s.exact(cands, weights, post, rows, cols)
	} else {
		s.approx(cands, weights, post, rows, cols)
	}
	return post
}

func dimensions(cands []CandidatePair) (rows, cols int) {
	for _, c := range cands {
		if c.Row+1 > rows {
			rows = c.Row + 1
		}
		if c.Col+1 > cols {
			cols = c.Col + 1
		}
	}
	return rows, cols
}

// cell is one candidate pair viewed from its row: the column it occupies
// and its weight.
type cell struct {
	col int32
	w   float64
}

// exact computes the permanent-style partition function by DP over
// subsets of the smaller side (at most MaxExactSide columns, so at most
// 2^12 states).
//
//remp:hotpath
func (s *matchScratch) exact(cands []CandidatePair, weights, post []float64, rows, cols int) {
	// Make columns the mask dimension (swap if rows is smaller).
	swapped := rows < cols
	if swapped {
		rows, cols = cols, rows
	}
	// Bucket the candidates by row with a stable counting sort, so each
	// row lists its cells in candidate order.
	if cap(s.rowOff) < rows+1 {
		s.rowOff = make([]int32, rows+1)
	}
	if cap(s.cells) < len(cands) {
		s.cells = make([]cell, len(cands))
	}
	rowOff, cells := s.rowOff[:rows+1], s.cells[:len(cands)]
	clear(rowOff)
	for _, c := range cands {
		r := c.Row
		if swapped {
			r = c.Col
		}
		rowOff[r+1]++
	}
	for r := 0; r < rows; r++ {
		rowOff[r+1] += rowOff[r]
	}
	for i := len(cands) - 1; i >= 0; i-- { // descending, so the fill below is stable
		r, cl := cands[i].Row, cands[i].Col
		if swapped {
			r, cl = cl, r
		}
		rowOff[r+1]--
		cells[rowOff[r+1]] = cell{col: int32(cl), w: weights[i]}
	}
	// rowOff[r+1] now marks row r's start; shift back to the usual layout.
	copy(rowOff, rowOff[1:])
	rowOff[rows] = int32(len(cands))

	size := 1 << uint(cols)
	if cap(s.cur) < size {
		s.cur = make([]float64, size)
		s.next = make([]float64, size)
	}
	// Z(banRow, banColMask): partition function over matchings avoiding a
	// row and set of columns. We need Z(-1, 0) and, per candidate, the
	// partition function excluding its row and column. Recompute per
	// candidate: dimensions are ≤ MaxExactSide so this stays cheap.
	zTotal := s.partition(rows, size, -1, 0)
	for i, c := range cands {
		r, cl := c.Row, c.Col
		if swapped {
			r, cl = cl, r
		}
		zWithout := s.partition(rows, size, r, 1<<uint(cl))
		post[i] = weights[i] * zWithout / zTotal
		if post[i] > 1 {
			post[i] = 1
		}
	}
}

// partition sums ∏ w over injective partial matchings that avoid banRow
// and the columns in banMask: a DP over rows on a dense array of
// used-column masks. Float accumulation order decides the rounding, and
// the partition function must round identically on every run and across
// implementations for results to stay byte-identical, so the order is
// pinned: masks ascending, and per mask "row unmatched" first, then the
// row's cells in candidate order. Unreached masks hold exactly 0 and are
// skipped; every reached state is a sum of products of positive weights,
// so "reached" and "non-zero" coincide.
//
//remp:hotpath
func (s *matchScratch) partition(rows, size, banRow int, banMask uint32) float64 {
	cur, next := s.cur[:size], s.next[:size]
	clear(cur)
	cur[banMask] = 1
	for r := 0; r < rows; r++ {
		row := s.cells[s.rowOff[r]:s.rowOff[r+1]]
		if r == banRow || len(row) == 0 {
			continue
		}
		clear(next)
		for mask, acc := range cur {
			if acc == 0 {
				continue
			}
			// Row unmatched.
			next[mask] += acc
			// Row matched to an unused column.
			for _, c := range row {
				bit := 1 << uint(c.col)
				if mask&bit == 0 {
					next[mask|bit] += acc * c.w
				}
			}
		}
		cur, next = next, cur
	}
	total := 0.0
	for _, acc := range cur {
		total += acc
	}
	return total
}

// approx is the fallback for neighborhoods larger than MaxExactSide on
// both sides: each candidate competes only with the other candidates in
// its own row and column (exact when that sub-graph is a star):
// Pr[p] ≈ w_p / (1 + Σ_{q ∈ row(p) ∪ col(p)} w_q).
//
//remp:hotpath
func (s *matchScratch) approx(cands []CandidatePair, weights, post []float64, rows, cols int) {
	if cap(s.rowSum) < rows {
		s.rowSum = make([]float64, rows)
	}
	if cap(s.colSum) < cols {
		s.colSum = make([]float64, cols)
	}
	rowSum, colSum := s.rowSum[:rows], s.colSum[:cols]
	clear(rowSum)
	clear(colSum)
	for i, c := range cands {
		rowSum[c.Row] += weights[i]
		colSum[c.Col] += weights[i]
	}
	for i, c := range cands {
		denom := 1 + rowSum[c.Row] + colSum[c.Col] - weights[i]
		post[i] = weights[i] / denom
		if post[i] > 1 {
			post[i] = 1
		}
	}
}

func clampProb(p float64) float64 {
	const lo, hi = 0.01, 0.99
	if math.IsNaN(p) {
		return lo
	}
	if p < lo {
		return lo
	}
	if p > hi {
		return hi
	}
	return p
}
