package propagation

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pair"
)

// BallEntry is one inferred vertex of a ζ-bounded single-source run: the
// dense vertex index and the bounded distance dist(q, p) ≤ ζ.
type BallEntry struct {
	Idx  int32
	Dist float64
}

// Ball is the emitted result of one single-source run: the vertices p ≠ q
// with dist(q, p) ≤ ζ, ascending in Idx. The flat sorted layout replaces
// the map[int]float64 the engine used to allocate per source: consumers
// iterate it in deterministic order for free.
type Ball []BallEntry

// Inferred holds, for every vertex q, the set of vertices p reachable with
// path probability at least τ, i.e. dist(q,p) ≤ ζ = −log τ where edge
// lengths are −log Pr[m_v′|m_v]. This is the output of Algorithm 2.
type Inferred struct {
	// dist[q] = the ball bt(q) of the paper; rev[p] lists the sources q
	// whose balls contain p (the paper's bt⁻¹(p)), ascending.
	dist []Ball
	rev  [][]int32
}

// InferAll computes the bounded distance maps of Algorithm 2 by running a
// ζ-bounded Dijkstra from every vertex, fanned across GOMAXPROCS
// goroutines. It produces exactly the same distances as the paper's
// modified Floyd–Warshall (InferAllFW, which lives on in the tests as its
// oracle) but scales linearly rather than quadratically in the per-vertex
// reachable-set size, which dominates on the dense connected components of
// IIMB-like datasets.
func (pg *ProbGraph) InferAll(tau float64) *Inferred {
	dist := pg.computeAll(zetaOf(tau))
	return &Inferred{dist: dist, rev: buildRev(dist, pg.g.NumVertices())}
}

// computeAll runs the parallel per-source Dijkstra fan-out; it is shared
// by InferAll and the Engine's full rebuild.
func (pg *ProbGraph) computeAll(zeta float64) []Ball {
	n := pg.g.NumVertices()
	dist := make([]Ball, n)
	srcs := make([]int32, n)
	for i := range srcs {
		srcs[i] = int32(i)
	}
	pg.inferSources(zeta, srcs, dist)
	return dist
}

// buildRev inverts the balls: rev[p] lists the sources whose ball contains
// p. Iterating sources ascending makes every rev row ascending for free;
// one flat backing array holds all rows (full slice expressions keep later
// appends from clobbering neighbors).
func buildRev(dist []Ball, n int) [][]int32 {
	cnt := make([]int32, n+1)
	total := 0
	for _, b := range dist {
		total += len(b)
		for _, en := range b {
			cnt[en.Idx+1]++
		}
	}
	start := make([]int32, n+1)
	for j := 0; j < n; j++ {
		start[j+1] = start[j] + cnt[j+1]
	}
	flat := make([]int32, total)
	fill := append([]int32(nil), start[:n]...)
	for i, b := range dist {
		for _, en := range b {
			flat[fill[en.Idx]] = int32(i)
			fill[en.Idx]++
		}
	}
	rev := make([][]int32, n)
	for j := 0; j < n; j++ {
		rev[j] = flat[start[j]:start[j+1]:start[j+1]]
	}
	return rev
}

// minParallelSources is the fan-out cutoff: below it, goroutine startup
// costs more than the Dijkstra work it would parallelize.
const minParallelSources = 64

// inferSources computes the ζ-bounded single-source ball of every source
// index s in srcs into dist[s], refilling the ball dist[s] already holds.
// Work is distributed over GOMAXPROCS goroutines via an atomic cursor; each
// worker owns one pooled scratch for its whole share, and each source's
// ball is independent, so the result is deterministic regardless of
// scheduling.
func (pg *ProbGraph) inferSources(zeta float64, srcs []int32, dist []Ball) {
	n := pg.g.NumVertices()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(srcs) {
		workers = len(srcs)
	}
	if workers <= 1 || len(srcs) < minParallelSources {
		sc := getScratch(n)
		for _, s := range srcs {
			dist[s] = pg.inferFromIndex(int(s), zeta, sc, dist[s])
		}
		putScratch(sc)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := getScratch(n)
			defer putScratch(sc)
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(srcs) {
					return
				}
				s := srcs[k]
				dist[s] = pg.inferFromIndex(int(s), zeta, sc, dist[s])
			}
		}()
	}
	wg.Wait()
}

// inferFromIndex is the hot Dijkstra loop shared by InferAll and the
// incremental Engine: a ζ-bounded single-source run from vertex
// index src on the caller-owned scratch. Stale heap entries are skipped by
// comparing the popped distance against the current best instead of a
// visited set; relaxations walk the CSR row with precomputed −log lengths
// (removed slots carry +Inf and fall to the ζ test the loop already
// performs). The ball is written into dst, the source's previous ball,
// when its capacity suffices; only a ball that outgrew it is allocated.
//
//remp:hotpath
func (pg *ProbGraph) inferFromIndex(src int, zeta float64, sc *scratch, dst Ball) Ball {
	sc.begin()
	sc.reach(int32(src), 0)
	sc.push(heapEntry{0, int32(src)})
	for len(sc.heap) > 0 {
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
				sc.push(heapEntry{d, j})
			} else if d < sc.dist[j] {
				sc.dist[j] = d
				sc.push(heapEntry{d, j})
			}
		}
	}
	ball := dst[:0]
	if cap(ball) < len(sc.touched)-1 {
		ball = make(Ball, 0, len(sc.touched)-1)
	}
	for _, j := range sc.touched {
		if int(j) == src {
			continue
		}
		ball = append(ball, BallEntry{Idx: j, Dist: sc.dist[j]})
	}
	slices.SortFunc(ball, func(a, b BallEntry) int { return int(a.Idx - b.Idx) })
	return ball
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

// Ball returns inferred(q) by dense index (q excluded), ascending in
// vertex index. The slice is the Inferred's own; callers must not mutate
// it.
func (inf *Inferred) Ball(q int) Ball { return inf.dist[q] }

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
