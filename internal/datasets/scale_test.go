package datasets

import (
	"os"
	"testing"
	"time"

	"repro/internal/blocking"
)

// TestScaleShape pins the structural contract Scale documents: label
// shapes that keep posting lists short, the exact-label fraction that
// seeds the initial match set, and the unmatched tail.
func TestScaleShape(t *testing.T) {
	const n = 4_000
	ds := Scale(3, n)
	if got, want := ds.K1.NumEntities(), n+n/10; got != want {
		t.Fatalf("K1 entities = %d, want %d", got, want)
	}
	if got, want := ds.K2.NumEntities(), n+n/10; got != want {
		t.Fatalf("K2 entities = %d, want %d", got, want)
	}
	if got := ds.Gold.Size(); got != n {
		t.Fatalf("gold matches = %d, want %d", got, n)
	}

	res := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
	// Every gold pair shares its serial token plus at least one filler
	// (Jaccard ≥ 0.5), so candidates must cover gold completely.
	inCand := make(map[[2]uint32]bool, len(res.Candidates))
	for _, c := range res.Candidates {
		inCand[[2]uint32{uint32(c.Pair.U1), uint32(c.Pair.U2)}] = true
	}
	for _, g := range ds.Gold.Matches() {
		if !inCand[[2]uint32{uint32(g.U1), uint32(g.U2)}] {
			t.Fatalf("gold pair %v not in candidate set", g)
		}
	}
	// The exact-label fraction (0.35) must land in the initial match set;
	// allow generous sampling slack around the expectation.
	frac := float64(len(res.Initial)) / float64(n)
	if frac < 0.25 || frac > 0.45 {
		t.Fatalf("initial-match fraction = %.3f, want ≈ 0.35", frac)
	}
	// Candidate volume stays near-linear: the non-match structure admits
	// only rare filler collisions above the threshold.
	if len(res.Candidates) > 3*n {
		t.Fatalf("candidate set blew up: %d candidates for %d entities/KB", len(res.Candidates), n)
	}
}

// TestScaleMillionSmoke is the CI bench job's fast stand-in for the full
// 1M-entity Prepare benchmark (remp-bench -experiment prepare): generate the
// million-entity KBs and run indexed blocking over them once, bounding
// generator and index regressions without the multi-minute similarity
// stages. Gated behind REMP_SCALE_SMOKE so routine test runs skip it.
func TestScaleMillionSmoke(t *testing.T) {
	if os.Getenv("REMP_SCALE_SMOKE") == "" {
		t.Skip("set REMP_SCALE_SMOKE=1 to run the 1M-entity smoke")
	}
	const n = 1_000_000
	t0 := time.Now()
	ds := Scale(1, n)
	genDur := time.Since(t0)

	t0 = time.Now()
	res := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
	blockDur := time.Since(t0)
	t.Logf("generate %v, indexed blocking %v, %d candidates, %d initial",
		genDur, blockDur, len(res.Candidates), len(res.Initial))

	if len(res.Candidates) < n {
		t.Fatalf("candidates = %d, want ≥ %d (every gold pair is a candidate)", len(res.Candidates), n)
	}
	if len(res.Candidates) > 3*n {
		t.Fatalf("candidate set blew up: %d", len(res.Candidates))
	}
	if frac := float64(len(res.Initial)) / float64(n); frac < 0.25 || frac > 0.45 {
		t.Fatalf("initial-match fraction = %.3f, want ≈ 0.35", frac)
	}
}
