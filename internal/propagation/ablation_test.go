package propagation_test

// Ablation benchmarks for the Dijkstra-based InferAll versus the
// paper-faithful Floyd–Warshall variant of Algorithm 2, which lives in
// this package's tests as the oracle the engine is checked against.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/propagation"
)

// probIIMB builds IIMB's monolithic probabilistic ER graph.
func probIIMB(b *testing.B) *propagation.ProbGraph {
	b.Helper()
	ds := datasets.IIMB(1)
	p := core.Prepare(ds.K1, ds.K2, core.DefaultConfig())
	priors := make([]float64, p.Graph.NumVertices())
	for i := range priors {
		priors[i] = p.Prior(i)
	}
	return propagation.BuildProbDense(p.Graph, priors, p.Consistency)
}

// BenchmarkAblation_InferAllDijkstra measures the default bounded-Dijkstra
// all-pairs discovery of inferred sets.
func BenchmarkAblation_InferAllDijkstra(b *testing.B) {
	pg := probIIMB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pg.InferAll(0.9)
	}
}

// BenchmarkAblation_InferAllFloydWarshall measures the paper's modified
// Floyd–Warshall (Algorithm 2 as printed); it computes identical maps but
// scales quadratically in the per-vertex reachable-set size.
func BenchmarkAblation_InferAllFloydWarshall(b *testing.B) {
	pg := probIIMB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pg.InferAllFW(0.9)
	}
}
