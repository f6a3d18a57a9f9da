package propagation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pair"
)

// TestCSRMatchesOracleTableDriven is the randomized property test for the
// flat-storage engine: across seeded sizes and τ values — including τ = 1
// (ζ ≈ 0) and a τ sitting exactly on a multi-hop path probability, the ζ
// boundary — the CSR-based InferAll (serial below the fan-out cutoff,
// parallel above it) and the incremental Engine after a Sync must both
// equal the paper-faithful InferAllFW oracle.
func TestCSRMatchesOracleTableDriven(t *testing.T) {
	cases := []struct {
		n       int
		density float64
		seed    int64
	}{
		{8, 0.4, 101},
		{33, 0.15, 102},
		{90, 0.06, 103}, // crosses the parallel fan-out cutoff
		{150, 0.03, 104},
	}
	taus := []float64{1, 0.95, 0.8, 0.65}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pg := randomPG(rng, tc.n, tc.density)
		// Add a ζ-boundary τ: exactly the probability of some two-hop path,
		// so its distance equals ζ up to the 1e-12 slack zetaOf grants.
		boundary := 0.0
		for i := 0; i < tc.n && boundary == 0; i++ {
			for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
				j := pg.colIdx[e]
				if pg.rowStart[j] == pg.rowStart[j+1] {
					continue
				}
				k := pg.rowStart[j] // first out-edge of j
				if pg.colIdx[k] != int32(i) && pg.prob[e] > 0 && pg.prob[k] > 0 {
					boundary = math.Exp(-(pg.length[e] + pg.length[k]))
					break
				}
			}
		}
		caseTaus := taus
		if boundary > 0 && boundary <= 1 {
			caseTaus = append(caseTaus, boundary)
		}
		for _, tau := range caseTaus {
			name := fmt.Sprintf("n=%d/tau=%v", tc.n, tau)
			want := pg.InferAllFW(tau)
			got := pg.InferAll(tau)
			for q := 0; q < tc.n; q++ {
				compareBalls(t, name, "dist", q, got.dist[q], want.dist[q])
				compareRevRows(t, name, q, got.rev[q], want.rev[q])
			}
			// Incremental sync after random edits must equal a rebuild of
			// the same mutated graph.
			e := NewEngine(pg, tau)
			for ops := 0; ops < 6; ops++ {
				slot := pg.randomSlot(rng, 0, tc.n)
				switch rng.Intn(4) {
				case 0:
					e.DetachVertex(rng.Intn(tc.n))
				case 1:
					e.editSlot(slot, 0)
				case 2:
					e.editSlot(slot, pg.prob[slot]*0.6)
				case 3:
					e.editSlot(slot, pg.prob[slot]+0.5*(1-pg.prob[slot]))
				}
			}
			e.Sync()
			assertMatchesOracle(t, e, tau, name)
			// Restore the fixture for the next τ (detaches mutate pg).
			pg = randomPG(rand.New(rand.NewSource(tc.seed)), tc.n, tc.density)
		}
	}
}

// TestDistOrder pins the propagation order helper: ascending distance,
// ties broken by pair order.
func TestDistOrder(t *testing.T) {
	verts := []pair.Pair{{U1: 1, U2: 1}, {U1: 2, U2: 2}, {U1: 3, U2: 3}, {U1: 4, U2: 4}}
	b := Ball{{Idx: 0, Dist: 0.7}, {Idx: 2, Dist: 0.2}, {Idx: 3, Dist: 0.7}}
	order := b.DistOrder(verts)
	want := []int32{1, 0, 2} // idx2 first (0.2), then idx0 before idx3 (tie on 0.7)
	for k, o := range order {
		if o != want[k] {
			t.Fatalf("DistOrder = %v, want %v", order, want)
		}
	}
}
