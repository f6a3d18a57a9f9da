package propagation

import (
	"fmt"
	"testing"
)

// BenchmarkInferAll measures Algorithm 2 at several graph sizes, through
// the GOMAXPROCS fan-out the Engine uses for its initial build (compare
// -cpu 1 for the serial cost). The clustered shape (disjoint functional chains) mirrors real ER
// graphs, whose connected components are entity clusters far smaller than
// the whole graph.
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
}

// BenchmarkEngineDetachSync measures one incremental invalidate+Sync
// (detaching a vertex and recomputing only its cluster's ball) against
// the full rebuild the loop used to pay for the same mutation.
func BenchmarkEngineDetachSync(b *testing.B) {
	const nc, cs = 40, 40 // 1600 vertices in 40-vertex clusters
	for _, mode := range []string{"incremental", "full-rebuild"} {
		b.Run(mode, func(b *testing.B) {
			pg, verts := clusteredPG(nc, cs)
			e := NewEngine(pg, 0.8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(verts) == 0 {
					// Every vertex has been detached; rebuild the fixture
					// off the clock so iterations keep measuring real work.
					b.StopTimer()
					pg, verts = clusteredPG(nc, cs)
					e = NewEngine(pg, 0.8)
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
