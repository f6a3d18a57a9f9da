package propagation

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkInferAll measures Algorithm 2 at several graph sizes, through
// the pool fan-out the Engine uses for its initial build (compare -cpu 1,
// one worker, for the serial cost). The clustered shape (disjoint functional chains) mirrors real ER
// graphs, whose connected components are entity clusters far smaller than
// the whole graph.
//
// The loop-shape case is remp-e2e loop-clustered's run shape: components
// of 75 vertices with 2.5 out-edges each on average, so a ball at τ = 0.9
// reaches most of its component and a run scans ≈ 185 edges. Its balls
// lie in one component's index range (74 entries over 75 indexes), so
// they are emitted by a stamp scan. The wide-span case scatters its balls
// as d-y's are scattered, further, so every one takes the sort: components
// of 9 vertices whose indexes are shuffled within windows of 1 440, so a
// ball of 8 entries spans ≈ 1 090 indexes.
func BenchmarkInferAll(b *testing.B) {
	for _, size := range []struct{ nc, cs int }{{8, 25}, {25, 32}, {80, 40}} {
		pg, _ := clusteredPG(size.nc, size.cs)
		n := size.nc * size.cs
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = pg.InferAll(0.8)
			}
		})
	}
	pg := loopShapePG(rand.New(rand.NewSource(1)), 120, 75)
	b.Run(fmt.Sprintf("loop-shape/n=%d", pg.g.NumVertices()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = pg.InferAll(0.9)
		}
	})
	pg = wideSpanPG(rand.New(rand.NewSource(1)), 1000, 9, 1440)
	b.Run(fmt.Sprintf("wide-span/n=%d", pg.g.NumVertices()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = pg.InferAll(0.9)
		}
	})
}

// wideSpanPG is loopShapePG's graph of nc components of cs vertices with
// its vertex indexes shuffled within consecutive windows of the given
// width, so a component's vertices scatter across its window.
func wideSpanPG(rng *rand.Rand, nc, cs, window int) *ProbGraph {
	n := nc * cs
	perm := make([]int, n)
	for lo := 0; lo < n; lo += window {
		hi := min(n, lo+window)
		for k, j := range rng.Perm(hi - lo) {
			perm[lo+k] = lo + j
		}
	}
	return probGraphFromAdj(isolatedPairs(n), relabel(loopShapeAdj(rng, nc, cs), perm))
}

// loopShapePG draws nc components of cs vertices: a ring, so each is
// strongly connected, plus one random chord a vertex and a second on every
// other vertex, all of probability 0.99 to 1.
func loopShapePG(rng *rand.Rand, nc, cs int) *ProbGraph {
	return probGraphFromAdj(isolatedPairs(nc*cs), loopShapeAdj(rng, nc, cs))
}

// loopShapeAdj is loopShapePG's adjacency: row i maps each out-neighbor
// to the edge's probability.
func loopShapeAdj(rng *rand.Rand, nc, cs int) []map[int]float64 {
	adj := make([]map[int]float64, nc*cs)
	for c := 0; c < nc; c++ {
		for k := 0; k < cs; k++ {
			i := c*cs + k
			adj[i] = map[int]float64{c*cs + (k+1)%cs: 0.99 + 0.01*rng.Float64()}
			for m := 1 + k%2; m > 0; m-- {
				if j := c*cs + rng.Intn(cs); j != i {
					adj[i][j] = 0.99 + 0.01*rng.Float64()
				}
			}
		}
	}
	return adj
}

// BenchmarkEngineDetachSync measures one incremental invalidate+Sync
// (detaching a vertex and recomputing only its cluster's ball) against
// the full rebuild the loop used to pay for the same mutation.
func BenchmarkEngineDetachSync(b *testing.B) {
	const nc, cs = 40, 40 // 1600 vertices in 40-vertex clusters
	for _, mode := range []string{"incremental", "full-rebuild"} {
		b.Run(mode, func(b *testing.B) {
			pg, verts := clusteredPG(nc, cs)
			e := pg.InferAll(0.8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(verts) == 0 {
					// Every vertex has been detached; rebuild the fixture
					// off the clock so iterations keep measuring real work.
					b.StopTimer()
					pg, verts = clusteredPG(nc, cs)
					e = pg.InferAll(0.8)
					b.StartTimer()
				}
				e.DetachVertex(i % len(verts))
				if mode == "full-rebuild" {
					e.InvalidateAll()
				}
				e.Sync()
			}
		})
	}
}
