package propagation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/par"
)

// BallEntry is one inferred vertex of a ζ-bounded single-source run: the
// dense vertex index and the bounded distance dist(q, p) ≤ ζ.
type BallEntry struct {
	Idx  int32
	Dist float64
}

// Ball is the emitted result of one single-source run: the vertices p ≠ q
// with dist(q, p) ≤ ζ, ascending in Idx. Consumers iterate it in a
// deterministic order with no sort of their own.
type Ball []BallEntry

// Inferred is the output of Algorithm 2: for every vertex q, the set of
// vertices p reachable with path probability at least τ, i.e.
// dist(q,p) ≤ ζ = −log τ where edge lengths are −log Pr[m_v′|m_v]. It is
// an Engine as first built, before any invalidation.
type Inferred = Engine

// InferAll computes the bounded distance maps of Algorithm 2 by running a
// ζ-bounded Dijkstra from every vertex, fanned out on the process's pool:
// the engine's first build. It produces exactly the same distances as the
// paper's modified Floyd–Warshall (InferAllFW, which lives on in the tests
// as its oracle) but scales linearly rather than quadratically in the
// per-vertex reachable-set size, which dominates on the dense connected
// components of IIMB-like datasets.
func (pg *ProbGraph) InferAll(tau float64) *Inferred {
	return NewEngineObs(pg, tau, obs.EngineCounters{})
}

// buildRev inverts the balls into e.rev: rev[p] lists the sources whose
// ball contains p. Iterating sources ascending makes every rev row
// ascending for free; one flat backing array holds all rows (full slice
// expressions keep later appends from clobbering neighbors). The flat
// array, the row offsets and the row headers are the engine's own: a bulk
// rebuild refills the previous ones when they fit, so a warm engine's
// rebuild allocates no reverse index.
func (e *Engine) buildRev() {
	n := len(e.dist)
	if len(e.revStart) != n+1 {
		e.revStart = make([]int32, n+1)
	} else {
		clear(e.revStart)
	}
	start := e.revStart
	total := 0
	for _, b := range e.dist {
		total += len(b)
		for _, en := range b {
			start[en.Idx+1]++
		}
	}
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	if cap(e.revFlat) < total {
		e.revFlat = make([]int32, total)
	}
	flat := e.revFlat[:total]
	// start[j] is row j's fill cursor while the sources are placed; each
	// ends at the next row's start, so shifting them back restores the
	// offsets.
	for i, b := range e.dist {
		for _, en := range b {
			flat[start[en.Idx]] = int32(i)
			start[en.Idx]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	if len(e.rev) != n {
		e.rev = make([][]int32, n)
	}
	for j := 0; j < n; j++ {
		e.rev[j] = flat[start[j]:start[j+1]:start[j+1]]
	}
}

// sourcesPerWorker is how many sources each fan-out worker is cut for:
// below it, a helper costs more to start than the Dijkstra work it would
// share, so a short list runs in its caller.
const sourcesPerWorker = 64

// inferSources computes the ζ-bounded single-source ball of every source
// index s in srcs into dist[s], refilling the ball dist[s] already holds.
// Up to par.Width workers, one pool task each, take the sources from one
// atomic cursor; a worker no helper picks up runs in the caller, which
// may itself be a pool task. Each worker owns one pooled scratch for its
// whole share, and carves the balls that outgrow their old storage from
// that scratch's chunk — sized by the worker's expected share of the
// sources still to run — which is dropped when the worker returns the
// scratch. Each source's ball is independent, so the result is
// deterministic regardless of scheduling.
func (pg *ProbGraph) inferSources(zeta float64, srcs []int32, dist []Ball) {
	n := pg.g.NumVertices()
	workers := min(par.Width(), (len(srcs)+sourcesPerWorker-1)/sourcesPerWorker)
	var cursor atomic.Int64
	par.Pool().ForEach(workers, func(int) {
		sc := getScratch(n)
		for k := int(cursor.Add(1)) - 1; k < len(srcs); k = int(cursor.Add(1)) - 1 {
			s := srcs[k]
			sc.left = (len(srcs) - k + workers - 1) / workers
			dist[s] = pg.inferFromIndex(int(s), zeta, sc, dist[s])
		}
		putScratch(sc)
	})
}

// inferFromIndex is the hot Dijkstra loop of the Engine's rebuilds and
// incremental Syncs: a ζ-bounded single-source run from vertex
// index src on the caller-owned scratch. Stale queue entries are skipped by
// comparing the popped distance against the current best instead of a
// visited set; relaxations walk the CSR row with precomputed −log lengths
// (removed slots carry +Inf and fall to the ζ test the loop already
// performs). The distances are the least fixed point of
// d[v] = min(d[u] + length), whatever order the queue pops ties in; only
// the touched order depends on it, and emitting the reached vertices (the
// source, touched[0], left out) in index order fixes that. A ball mostly
// lies in one component's index range, so when the run's span — its
// lowest to highest reached index — is narrow next to the count, the
// epoch stamps over the span are scanned in index order (no comparisons);
// a ball scattered across the index range is sorted instead (scanEmits).
// The ball is written into dst, the source's previous ball, when its
// capacity suffices; a ball that outgrew it is carved from the worker's
// chunk.
//
//remp:hotpath
func (pg *ProbGraph) inferFromIndex(src int, zeta float64, sc *scratch, dst Ball) Ball {
	sc.begin()
	sc.reach(int32(src), 0)
	sc.lo, sc.hi = math.MaxInt32, math.MinInt32 // the span leaves the source out
	sc.push(pending{0, int32(src)})
	for sc.occupied != 0 {
		it := sc.pop()
		if it.d > sc.dist[it.v] {
			continue // superseded entry
		}
		for e := pg.rowStart[it.v]; e < pg.rowStart[it.v+1]; e++ {
			d := it.d + pg.length[e]
			if d > zeta {
				continue
			}
			j := pg.colIdx[e]
			if !sc.visited(j) {
				sc.reach(j, d)
				sc.push(pending{d, j})
			} else if d < sc.dist[j] {
				sc.dist[j] = d
				sc.push(pending{d, j})
			}
		}
	}
	reached := sc.touched[1:]
	ball := dst
	if cap(ball) < len(reached) {
		ball = sc.carve(len(reached))
	}
	ball = ball[:len(reached)]
	if len(reached) == 0 {
		return ball
	}
	lo, hi := sc.lo, sc.hi
	if !scanEmits(len(reached), int(hi-lo)+1) {
		slices.Sort(reached)
		for k, j := range reached {
			ball[k] = BallEntry{Idx: j, Dist: sc.dist[j]}
		}
		return ball
	}
	k := 0
	for j := lo; j <= hi; j++ {
		if sc.stamp[j] == sc.epoch && j != int32(src) {
			ball[k] = BallEntry{Idx: j, Dist: sc.dist[j]}
			k++
		}
	}
	return ball
}

// scanEmits reports whether a ball of n reached vertices spanning span
// indexes is emitted by scanning the span's stamps rather than by sorting.
// A scan reads each index of the span once, a sort makes about n·log₂ n
// comparisons; timed apart on x86-64, the two break even at a span of
// 1.2 (n = 4) to 1.8 (n = 300) times n·bits.Len(n).
func scanEmits(n, span int) bool {
	return span <= 2*n*bits.Len(uint(n))
}

// zetaOf converts the precision threshold τ into the distance bound
// ζ = −log τ. τ must already be validated at the API boundary
// (core.Config.Validate / remp.Options): an out-of-range value here is a
// programming error, not user input, so it panics instead of being
// silently coerced.
func zetaOf(tau float64) float64 {
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		panic(fmt.Sprintf("propagation: tau = %v out of range (0, 1]; validate at the core.Config / remp.Options boundary", tau))
	}
	// Tiny slack absorbs floating-point noise in summed logs.
	return -math.Log(tau) + 1e-12
}

// DistOrder returns the ball's positions ordered by (distance, tie-break
// pair order): the order a confirmed match propagates in, so the 1:1
// constraint lets the most probable pair of an entity win.
func (b Ball) DistOrder(verts []pair.Pair) []int32 {
	order := make([]int32, len(b))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		ex, ey := b[x], b[y]
		if ex.Dist != ey.Dist {
			if ex.Dist < ey.Dist {
				return -1
			}
			return 1
		}
		if verts[ex.Idx].Less(verts[ey.Idx]) {
			return -1
		}
		return 1
	})
	return order
}
