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
// boundary — the CSR-based InferAll, its serial variant and the
// incremental Engine after a Sync must all equal the paper-faithful
// InferAllFW oracle.
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
		pg, verts := randomPG(rng, tc.n, tc.density)
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
			for _, got := range []*Inferred{pg.InferAll(tau), pg.inferAllSerial(tau)} {
				for q := 0; q < tc.n; q++ {
					compareBalls(t, name, "dist", q, got.dist[q], want.dist[q])
					compareRevRows(t, name, q, got.rev[q], want.rev[q])
				}
			}
			// Incremental sync after random removals must equal a rebuild of
			// the same mutated graph.
			e := NewEngine(pg, tau)
			for ops := 0; ops < 6; ops++ {
				switch rng.Intn(3) {
				case 0:
					e.DetachVertex(verts[rng.Intn(tc.n)])
				case 1:
					e.SetProb(verts[rng.Intn(tc.n)], verts[rng.Intn(tc.n)], 0)
				case 2:
					i, j := rng.Intn(tc.n), rng.Intn(tc.n)
					e.SetProb(verts[i], verts[j], pg.probAt(i, j)*0.6)
				}
			}
			e.Sync()
			assertMatchesOracle(t, e, name)
			// Restore the fixture for the next τ (detaches mutate pg).
			pg, verts = randomPG(rand.New(rand.NewSource(tc.seed)), tc.n, tc.density)
		}
	}
}

// TestSetProbOverlayVisibility pins the overlay semantics: an edge added
// after the CSR build (no slot) must be visible to Prob, Length, NumEdges
// and the bounded Dijkstra both before and after Fold merges it into the
// CSR, and removable through either representation.
func TestSetProbOverlayVisibility(t *testing.T) {
	// Two disjoint 3-chains: vs[0..2] and vs[3..5]. The overlay edge bridges
	// the clusters, so the direct edge is the only 0→3 path and its length
	// is exactly the ball distance.
	pg, vs := clusteredPG(2, 3)
	a, d := vs[0], vs[3]
	if pg.Prob(a, d) != 0 {
		t.Fatalf("chain should have no direct 0→3 edge, got %v", pg.Prob(a, d))
	}
	edgesBefore := pg.NumEdges()

	check := func(stage string) {
		t.Helper()
		if got := pg.Prob(a, d); got != 0.9 {
			t.Fatalf("%s: Prob = %v, want 0.9", stage, got)
		}
		if got := pg.Length(a, d); math.Abs(got+math.Log(0.9)) > 1e-12 {
			t.Fatalf("%s: Length = %v", stage, got)
		}
		if got := pg.NumEdges(); got != edgesBefore+1 {
			t.Fatalf("%s: NumEdges = %d, want %d", stage, got, edgesBefore+1)
		}
		// The Dijkstra must route through the new shortcut: with the direct
		// edge at 0.9, vertex 3 is one hop from vertex 0.
		ball := pg.InferFrom(a, 0.9)
		if dd, ok := ball.Get(3); !ok || math.Abs(dd+math.Log(0.9)) > 1e-12 {
			t.Fatalf("%s: Dijkstra missed the overlay edge (ball=%v)", stage, ball)
		}
		// The oracle must see it identically.
		fw := pg.InferAllFW(0.9)
		if dd, ok := fw.Ball(0).Get(3); !ok || math.Abs(dd+math.Log(0.9)) > 1e-12 {
			t.Fatalf("%s: FW oracle missed the overlay edge", stage)
		}
	}

	pg.SetProb(a, d, 0.9) // no CSR slot → overlay
	if pg.ovCount != 1 {
		t.Fatalf("edge should live in the overlay, ovCount = %d", pg.ovCount)
	}
	check("before fold")

	pg.Fold()
	if pg.ovCount != 0 || pg.ovOut != nil {
		t.Fatalf("Fold left overlay state behind (count=%d)", pg.ovCount)
	}
	check("after fold")

	// Post-fold the edge occupies a real slot; removal zeroes it in place.
	pg.SetProb(a, d, 0)
	if pg.Prob(a, d) != 0 || pg.NumEdges() != edgesBefore {
		t.Fatalf("removal after fold failed: prob=%v edges=%d", pg.Prob(a, d), pg.NumEdges())
	}

	// Overlay removal path: the zeroed slot above is reused in place, so
	// re-adding 0→3 would land in the CSR, not the overlay — exercise a
	// genuinely new edge instead.
	b, e := vs[1], vs[4]
	pg.SetProb(b, e, 0.8)
	if pg.ovCount != 1 {
		t.Fatalf("new edge should be overlay, ovCount = %d", pg.ovCount)
	}
	pg.SetProb(b, e, 0)
	if pg.ovCount != 0 || pg.Prob(b, e) != 0 {
		t.Fatalf("overlay removal failed: ovCount=%d prob=%v", pg.ovCount, pg.Prob(b, e))
	}
}

// TestEngineSeesOverlayThroughRebuild drives the overlay through the
// Engine: a brand-new edge lands in the overlay and only dirties the
// sources that can see its tail, the partial Sync reads it beside the CSR
// rows, and the next full rebuild folds it — the balls match the oracle on
// the mutated graph at both points.
func TestEngineSeesOverlayThroughRebuild(t *testing.T) {
	pg, vs := clusteredPG(6, 8) // ball = one 8-chain ≪ n/2, no bulk fallback
	g := pg.Graph()
	e := NewEngine(pg, 0.8)
	e.SetProb(vs[0], vs[12], 0.95) // brand-new edge into another chain → overlay
	if got := e.PendingSources(); got == 0 || got >= g.NumVertices()/2 {
		t.Fatalf("new edge should dirty its tail's ball only, pending = %d of %d", got, g.NumVertices())
	}
	e.Sync()
	if pg.ovCount != 1 {
		t.Fatalf("partial sync should leave the overlay in place, ovCount = %d", pg.ovCount)
	}
	assertMatchesOracle(t, e, "after overlay partial sync")
	if _, ok := e.Ball(0).Get(12); !ok {
		t.Fatal("ball of vertex 0 misses the new edge's target")
	}
	e.InvalidateAll()
	e.Sync()
	if pg.ovCount != 0 {
		t.Fatalf("rebuild should fold the overlay, ovCount = %d", pg.ovCount)
	}
	assertMatchesOracle(t, e, "after overlay rebuild")
}

// TestDetachClearsOverlayEdges ensures DetachVertex removes overlay edges
// in both directions, not only CSR slots.
func TestDetachClearsOverlayEdges(t *testing.T) {
	g, k1, k2, vs := chainGraph(5, false)
	pg := BuildProb(g, k1, k2, strongParams(g))
	pg.SetProb(vs[0], vs[3], 0.9)
	pg.SetProb(vs[3], vs[0], 0.9)
	if pg.ovCount != 2 {
		t.Fatalf("ovCount = %d, want 2", pg.ovCount)
	}
	pg.detachAt(3)
	if pg.ovCount != 0 || pg.Prob(vs[0], vs[3]) != 0 || pg.Prob(vs[3], vs[0]) != 0 {
		t.Fatalf("detach left overlay edges: count=%d", pg.ovCount)
	}
	if out, in := pg.degreeAt(3); out != 0 || in != 0 {
		t.Fatalf("detached vertex still has degree %d/%d", out, in)
	}
}

// TestBallGet pins the binary-search membership helper.
func TestBallGet(t *testing.T) {
	b := Ball{{Idx: 2, Dist: 0.5}, {Idx: 7, Dist: 1.25}, {Idx: 9, Dist: 0.1}}
	if d, ok := b.Get(7); !ok || d != 1.25 {
		t.Fatalf("Get(7) = %v,%v", d, ok)
	}
	if _, ok := b.Get(3); ok {
		t.Fatal("Get(3) should miss")
	}
	if _, ok := Ball(nil).Get(0); ok {
		t.Fatal("nil ball should miss")
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
