package propagation

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/pair"
)

// This file holds the probes the tests read and edit graphs and engines
// through. Production code has no use for them: a loop detaches vertices
// and rewrites rows, and reads balls by dense index.

// pendingSources returns how many sources the next Sync will recompute,
// accounting for retirements and the bulk-rebuild fallback.
func (e *Engine) pendingSources() int {
	k := 0
	for _, i := range e.dirty {
		if !e.retired[i] {
			k++
		}
	}
	if e.full || e.bulkFallback(k) {
		return e.live
	}
	return k
}

// ballSize returns |bt⁻¹(q)|, the number of sources whose ζ-ball contains
// q as of the last Sync (excluding q itself).
func (e *Engine) ballSize(q pair.Pair) int {
	return len(e.rev[e.pg.g.IndexOf(q)])
}

// slot binary-searches row i for column j, returning the out-CSR position
// or -1 when the row has no such edge.
func (pg *ProbGraph) slot(i, j int) int32 {
	lo, hi := pg.rowStart[i], pg.rowStart[i+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pg.colIdx[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < pg.rowStart[i+1] && pg.colIdx[lo] == int32(j) {
		return lo
	}
	return -1
}

// probAt returns Pr[m_j | m_i] by dense index, or 0 when the edge is
// absent or was removed.
func (pg *ProbGraph) probAt(i, j int) float64 {
	if e := pg.slot(i, j); e >= 0 {
		return pg.prob[e]
	}
	return 0
}

// Prob is probAt by vertex pair.
func (pg *ProbGraph) Prob(from, to pair.Pair) float64 {
	return pg.probAt(pg.g.IndexOf(from), pg.g.IndexOf(to))
}

// writeSlot stores p (clamped to [0, 1]) into out-CSR slot e the way a row
// rewrite does — probability, length and the live degrees of both
// endpoints — and reports whether the value moved. It is the tests' way
// to weaken, strengthen, remove and restore an existing edge.
func (pg *ProbGraph) writeSlot(e int32, p float64) bool {
	p = math.Max(0, math.Min(1, p))
	old := pg.prob[e]
	if p == old {
		return false
	}
	i, j := pg.tailOf(e), pg.colIdx[e]
	switch {
	case p > 0 && old <= 0:
		pg.outDeg[i]++
		pg.inDeg[j]++
	case p <= 0:
		pg.outDeg[i]--
		pg.inDeg[j]--
	}
	pg.prob[e] = p
	pg.length[e] = math.Inf(1)
	if p > 0 {
		pg.length[e] = -math.Log(p)
	}
	return true
}

// editSlot writes slot e of the engine's graph and invalidates the edge's
// tail, as Rewriter.Apply + InvalidateTails do for a rewritten row.
func (e *Engine) editSlot(slot int32, p float64) {
	if e.pg.writeSlot(slot, p) {
		e.InvalidateTails([]int32{e.pg.tailOf(slot)})
	}
}

// tailOf returns the row that owns out-CSR slot e.
func (pg *ProbGraph) tailOf(e int32) int32 {
	i, _ := slices.BinarySearch(pg.rowStart, e+1)
	return int32(i - 1)
}

// randomSlot draws a slot among rows [lo, hi), or -1 when they hold none.
func (pg *ProbGraph) randomSlot(rng *rand.Rand, lo, hi int) int32 {
	a, b := pg.rowStart[lo], pg.rowStart[hi]
	if a == b {
		return -1
	}
	return a + int32(rng.Intn(int(b-a)))
}
