package ergraph_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ergraph"
)

// BenchmarkBuild measures Build over the retained pairs Prepare keeps on
// d-y, on a Scale pair and on remp-e2e loop-clustered's Clustered(120, 60),
// whose hubs give vertices long successor lists under one relationship:
// each successor's retained run is joined with the other side's successors
// by walking the shorter list and binary-searching the longer. It reports
// as heap-MB the live heap one Graph holds, measured as BenchmarkPrepare
// measures a Prepared: HeapAlloc after a forced GC with the graph
// reachable, minus the reading before it was built.
func BenchmarkBuild(b *testing.B) {
	dy, err := datasets.ByName("d-y", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, ds := range []*datasets.Dataset{dy, datasets.Scale(10, 20_000), datasets.Clustered(120, 60, 1)} {
		b.Run(ds.Name, func(b *testing.B) {
			verts := core.Prepare(ds.K1, ds.K2, core.DefaultConfig()).Retained
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ergraph.Build(ds.K1, ds.K2, verts)
			}
			b.StopTimer()
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			before := m.HeapAlloc
			g := ergraph.Build(ds.K1, ds.K2, verts)
			runtime.GC()
			runtime.ReadMemStats(&m)
			runtime.KeepAlive(g)
			b.ReportMetric((float64(m.HeapAlloc)-float64(before))/1e6, "heap-MB")
		})
	}
}
