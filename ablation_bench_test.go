package repro

// Ablation benchmarks for the choices where the implementation departs
// from or extends the paper: the exact bitmask-DP posterior versus the
// local-exclusion approximation, and the full pipeline with and without
// the isolated-pair forest. The Dijkstra-based InferAll versus the
// paper-faithful Floyd–Warshall variant of Algorithm 2 is in
// internal/propagation/ablation_test.go.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/propagation"
)

// BenchmarkAblation_PosteriorExact measures the exact bitmask-DP
// marginalization on a dense 8×8 neighborhood.
func BenchmarkAblation_PosteriorExact(b *testing.B) {
	nb := denseNeighborhood(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nb.Posteriors()
	}
}

// BenchmarkAblation_PosteriorApprox measures the same neighborhood under
// the local-exclusion approximation used beyond the exact cutoff.
func BenchmarkAblation_PosteriorApprox(b *testing.B) {
	nb := denseNeighborhood(20) // beyond MaxExactSide on both sides
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nb.Posteriors()
	}
}

func denseNeighborhood(n int) *propagation.Neighborhood {
	nb := &propagation.Neighborhood{Eps1: 0.9, Eps2: 0.9}
	id := 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if (r+c)%3 == 0 {
				continue
			}
			prior := 0.3
			if r == c {
				prior = 0.9
			}
			nb.Cands = append(nb.Cands, propagation.CandidatePair{
				Row: r, Col: c,
				Pair:  pair.Pair{U1: kb.EntityID(id), U2: kb.EntityID(id)},
				Prior: prior,
			})
			id++
		}
	}
	return nb
}

// BenchmarkAblation_RempPlain runs the full pipeline with the paper's
// default configuration.
func BenchmarkAblation_RempPlain(b *testing.B) {
	benchPipeline(b, func(cfg *core.Config) {})
}

// BenchmarkAblation_RempNoClassifier disables the isolated-pair forest.
func BenchmarkAblation_RempNoClassifier(b *testing.B) {
	benchPipeline(b, func(cfg *core.Config) { cfg.ClassifyIsolated = false })
}

func benchPipeline(b *testing.B, mutate func(*core.Config)) {
	ds := datasets.IMDBYAGO(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		p := core.Prepare(ds.K1, ds.K2, cfg)
		res := p.Run(core.NewOracleAsker(ds.Gold.IsMatch))
		prf := pair.Evaluate(res.Matches, ds.Gold)
		b.ReportMetric(prf.F1*100, "F1%")
		b.ReportMetric(float64(res.Questions), "questions")
	}
}
