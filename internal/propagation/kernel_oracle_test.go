package propagation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the single-source kernel the radix queue replaced — a
// 4-ary heap, then the ball sorted by index through a comparator — as the
// oracle the kernel is held to bit for bit.

// heapEntry is one pending relaxation of the reference heap.
type heapEntry struct {
	d float64
	v int32
}

// heapScratch is the reference kernel's per-run state: distances by epoch
// stamp, the 4-ary heap and the touched list.
type heapScratch struct {
	dist    []float64
	stamp   []uint32
	epoch   uint32
	heap    []heapEntry
	touched []int32
}

func (sc *heapScratch) push(e heapEntry) {
	h := append(sc.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].d <= h[i].d {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	sc.heap = h
}

func (sc *heapScratch) pop() heapEntry {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		c := i*4 + 1
		if c >= len(h) {
			break
		}
		m := c
		for k := c + 1; k < min(c+4, len(h)); k++ {
			if h[k].d < h[m].d {
				m = k
			}
		}
		if h[i].d <= h[m].d {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	sc.heap = h
	return top
}

// inferFromIndexHeap is the reference single-source run.
func (pg *ProbGraph) inferFromIndexHeap(src int, zeta float64, sc *heapScratch) Ball {
	if n := pg.g.NumVertices(); len(sc.dist) < n {
		sc.dist, sc.stamp = make([]float64, n), make([]uint32, n)
	}
	sc.epoch++
	sc.heap, sc.touched = sc.heap[:0], sc.touched[:0]
	reach := func(v int32, d float64) {
		sc.stamp[v], sc.dist[v] = sc.epoch, d
		sc.touched = append(sc.touched, v)
	}
	reach(int32(src), 0)
	sc.push(heapEntry{0, int32(src)})
	for len(sc.heap) > 0 {
		it := sc.pop()
		if it.d > sc.dist[it.v] {
			continue
		}
		for e := pg.rowStart[it.v]; e < pg.rowStart[it.v+1]; e++ {
			d := it.d + pg.length[e]
			if d > zeta {
				continue
			}
			j := pg.colIdx[e]
			if sc.stamp[j] != sc.epoch {
				reach(j, d)
				sc.push(heapEntry{d, j})
			} else if d < sc.dist[j] {
				sc.dist[j] = d
				sc.push(heapEntry{d, j})
			}
		}
	}
	ball := make(Ball, 0, len(sc.touched)-1)
	for _, j := range sc.touched {
		if int(j) != src {
			ball = append(ball, BallEntry{Idx: j, Dist: sc.dist[j]})
		}
	}
	slices.SortFunc(ball, func(a, b BallEntry) int { return int(a.Idx - b.Idx) })
	return ball
}

// tiedPG draws components of 1 to 45 vertices with up to five out-edges a
// vertex, their probabilities mostly from a small palette — 1 (length −0),
// 0 (a removed slot, +Inf) and values whose sums tie along parallel paths
// — and otherwise uniform. A component's vertices have consecutive
// indexes, so most balls are narrow next to their size.
func tiedPG(rng *rand.Rand, n int) *ProbGraph {
	return probGraphFromAdj(isolatedPairs(n), tiedAdj(rng, n))
}

// scatteredPG is tiedPG's graph with its vertex indexes shuffled, so a
// small ball spans much of the index range.
func scatteredPG(rng *rand.Rand, n int) *ProbGraph {
	adj := tiedAdj(rng, n)
	return probGraphFromAdj(isolatedPairs(n), relabel(adj, rng.Perm(n)))
}

// relabel moves vertex i of the adjacency to index perm[i].
func relabel(adj []map[int]float64, perm []int) []map[int]float64 {
	moved := make([]map[int]float64, len(adj))
	for i, row := range adj {
		moved[perm[i]] = make(map[int]float64, len(row))
		for j, p := range row {
			moved[perm[i]][perm[j]] = p
		}
	}
	return moved
}

// tiedAdj is tiedPG's adjacency: row i maps each out-neighbor to the
// edge's probability.
func tiedAdj(rng *rand.Rand, n int) []map[int]float64 {
	palette := []float64{1, 0, 0.5, 0.25, 0.9, 0.81, 0.75}
	adj := make([]map[int]float64, n)
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(45))
		for i := lo; i < hi; i++ {
			adj[i] = map[int]float64{}
			for k := rng.Intn(6); k > 0 && hi-lo > 1; k-- {
				j := lo + rng.Intn(hi-lo)
				if j == i {
					continue
				}
				if rng.Intn(4) == 0 {
					adj[i][j] = rng.Float64()
				} else {
					adj[i][j] = palette[rng.Intn(len(palette))]
				}
			}
		}
		lo = hi
	}
	return adj
}

// TestKernelMatchesHeapOracleBitwise holds every source's ball — indexes
// and the bits of each distance — to the reference kernel's, on graphs
// rich in zero-length edges, removed slots and equal-distance ties, from
// τ = 1 (only probability-1 paths) to τ = 0.3. Each run refills the
// previous source's ball, so both the in-place and the growing emission
// are covered; the engine's first build must agree too. Half the graphs
// keep a component's indexes together and half scatter them, and the
// test fails unless both emissions — the stamp scan over a narrow span
// and the sort of a wide one — produced balls.
func TestKernelMatchesHeapOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	emitted := map[bool]int{} // by scanEmits: true for a scan, false for a sort
	for iter := 0; iter < 200; iter++ {
		draw := tiedPG
		if iter >= 100 {
			draw = scatteredPG
		}
		pg := draw(rng, 20+rng.Intn(180))
		n := pg.g.NumVertices()
		for _, tau := range []float64{1, 0.9, 0.75, 0.3} {
			zeta := zetaOf(tau)
			e := pg.InferAll(tau)
			sc, ref := getScratch(n), &heapScratch{}
			var got Ball
			for q := 0; q < n; q++ {
				got = pg.inferFromIndex(q, zeta, sc, got)
				want := pg.inferFromIndexHeap(q, zeta, ref)
				ctx := fmt.Sprintf("iter %d τ=%v source %d", iter, tau, q)
				sameBallBits(t, ctx, got, want)
				sameBallBits(t, ctx+" (engine)", e.Ball(q), want)
				if len(want) > 0 {
					emitted[scanEmits(len(want), int(want[len(want)-1].Idx-want[0].Idx)+1)]++
				}
			}
			putScratch(sc)
		}
	}
	if emitted[true] == 0 || emitted[false] == 0 {
		t.Fatalf("%d balls scanned, %d sorted: both emissions must be checked", emitted[true], emitted[false])
	}
	t.Logf("%d balls scanned, %d sorted", emitted[true], emitted[false])
}

func sameBallBits(t *testing.T, ctx string, got, want Ball) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(a, b BallEntry) bool {
		return a.Idx == b.Idx && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
	}) {
		t.Fatalf("%s: ball %v, reference %v", ctx, got, want)
	}
}
