package propagation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// Reset swaps in a freshly built probabilistic graph and schedules a
// parallel full rebuild: the from-scratch reference the incremental engine
// and the in-place rewrite are tested against.
func (e *Engine) Reset(pg *ProbGraph) {
	e.pg = pg
	e.InvalidateAll()
}

// randomAdj draws a random high-probability adjacency over n vertices,
// the same construction used by TestInferAllMatchesDijkstra.
func randomAdj(rng *rand.Rand, n int, density float64) []map[int]float64 {
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = map[int]float64{}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				adj[i][j] = 0.8 + 0.2*rng.Float64()
			}
		}
	}
	return adj
}

// probGraphFromAdj builds a CSR probabilistic graph over g from explicit
// adjacency maps.
func probGraphFromAdj(g *ergraph.Graph, adj []map[int]float64) *ProbGraph {
	pg := &ProbGraph{g: g, rowStart: make([]int32, g.NumVertices()+1)}
	for i, m := range adj {
		js := make([]int, 0, len(m))
		for j := range m {
			js = append(js, j)
		}
		slices.Sort(js)
		for _, j := range js {
			pg.colIdx = append(pg.colIdx, int32(j))
			pg.prob = append(pg.prob, m[j])
		}
		pg.rowStart[i+1] = int32(len(pg.colIdx))
	}
	pg.finish()
	return pg
}

// randomPG builds a probabilistic graph over n isolated vertex pairs with
// random high-probability directed edges.
func randomPG(rng *rand.Rand, n int, density float64) *ProbGraph {
	return probGraphFromAdj(isolatedPairs(n), randomAdj(rng, n, density))
}

// isolatedPairs builds an ER graph of n vertex pairs and no edges, for
// probGraphFromAdj to lay arbitrary probabilities over.
func isolatedPairs(n int) *ergraph.Graph {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	verts := make([]pair.Pair, n)
	for i := 0; i < n; i++ {
		verts[i] = pair.Pair{
			U1: k1.AddEntity(fmt.Sprintf("a%d", i)),
			U2: k2.AddEntity(fmt.Sprintf("b%d", i)),
		}
	}
	return ergraph.Build(k1, k2, verts)
}

// assertMatchesOracle compares the engine's balls entry-by-entry against a
// fresh paper-faithful Floyd–Warshall run on the current graph state.
func assertMatchesOracle(t *testing.T, e *Engine, tau float64, ctx string) {
	t.Helper()
	want := e.pg.InferAllFW(tau)
	n := e.pg.g.NumVertices()
	if len(e.dist) != n || len(e.rev) != n {
		t.Fatalf("%s: engine sized %d/%d, graph has %d vertices", ctx, len(e.dist), len(e.rev), n)
	}
	for i := 0; i < n; i++ {
		compareBalls(t, ctx, "dist", i, e.dist[i], want.dist[i])
		compareRevRows(t, ctx, i, e.rev[i], want.rev[i])
	}
}

func compareBalls(t *testing.T, ctx, kind string, i int, got, want Ball) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s[%d] has %d entries, oracle %d (got=%v want=%v)", ctx, kind, i, len(got), len(want), got, want)
	}
	for k, w := range want {
		if got[k].Idx != w.Idx || math.Abs(got[k].Dist-w.Dist) > 1e-9 {
			t.Fatalf("%s: %s[%d][%d] = %+v, oracle %+v", ctx, kind, i, k, got[k], w)
		}
	}
}

// compareRevRows compares reverse rows as source sets: the engine keeps
// its rows unordered, the oracle's are ascending.
func compareRevRows(t *testing.T, ctx string, i int, got, want []int32) {
	t.Helper()
	g := append([]int32(nil), got...)
	slices.Sort(g)
	if !slices.Equal(g, want) {
		t.Fatalf("%s: rev[%d] = %v, oracle %v", ctx, i, g, want)
	}
}

// TestNewEngineMatchesInferAll checks the engine's first build — what
// InferAll returns — against the Floyd–Warshall oracle, one Dijkstra per
// vertex.
func TestNewEngineMatchesInferAll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		n := 10 + rng.Intn(90) // crosses the parallel fan-out cutoff
		pg := randomPG(rng, n, 0.1)
		tau := 0.7
		e := pg.InferAll(tau)
		if got := e.Recomputes(); got != int64(n) {
			t.Fatalf("initial build ran %d Dijkstras, want %d", got, n)
		}
		assertMatchesOracle(t, e, tau, fmt.Sprintf("iter %d initial", iter))
	}
}

// TestEngineRandomizedInvalidation drives the engine through arbitrary
// sequences of detaches, edge removals, weakenings, strengthenings (of
// live and of removed edges) and re-estimation resets, all on the slots
// the graph was built with, checking after every Sync that the maps are
// identical to a from-scratch oracle run. This is the equivalence theorem
// the incremental step relies on; run it with -race to also exercise the
// parallel recompute.
func TestEngineRandomizedInvalidation(t *testing.T) {
	// Cut the sources for four workers whatever the CPU count; on more
	// than one CPU the pool's helpers take some of them, so -race
	// exercises the parallel recompute path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 12; iter++ {
		n := 64 + rng.Intn(40) // above the fan-out cutoff so Sync parallelizes
		pg := randomPG(rng, n, 0.08)
		tau := 0.65 + 0.25*rng.Float64()
		e := pg.InferAll(tau)
		for step := 0; step < 10; step++ {
			for ops := 1 + rng.Intn(4); ops > 0; ops-- {
				slot := pg.randomSlot(rng, 0, n)
				switch rng.Intn(6) {
				case 0, 1:
					e.DetachVertex(rng.Intn(n))
				case 2:
					e.editSlot(slot, 0) // remove one edge
				case 3:
					e.editSlot(slot, pg.prob[slot]*0.5) // weaken
				case 4:
					e.editSlot(slot, 0.8+0.2*rng.Float64()) // strengthen, or restore a removed edge
				case 5:
					pg = randomPG(rng, n, 0.08)
					e.Reset(pg) // the from-scratch reference swaps the whole graph
				}
			}
			e.Sync()
			assertMatchesOracle(t, e, tau, fmt.Sprintf("iter %d step %d", iter, step))
		}
	}
}

// clusteredPG builds nc disjoint functional chains of length cs — the
// shape of real ER graphs, where connected components are entity clusters
// far smaller than the whole graph — so a ζ-ball is one cluster.
func clusteredPG(nc, cs int) (*ProbGraph, []pair.Pair) {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	r1 := k1.AddRel("next")
	r2 := k2.AddRel("next")
	verts := make([]pair.Pair, 0, nc*cs)
	for c := 0; c < nc; c++ {
		var prev pair.Pair
		for i := 0; i < cs; i++ {
			v := pair.Pair{
				U1: k1.AddEntity(fmt.Sprintf("a%d_%d", c, i)),
				U2: k2.AddEntity(fmt.Sprintf("b%d_%d", c, i)),
			}
			if i > 0 {
				k1.AddRelTriple(prev.U1, r1, v.U1)
				k2.AddRelTriple(prev.U2, r2, v.U2)
			}
			verts = append(verts, v)
			prev = v
		}
	}
	g := ergraph.Build(k1, k2, verts)
	return BuildProb(g, k1, k2, strongParams(g)), verts
}

// TestEngineRecomputesOnlyBall pins down the invalidation granularity: a
// detach must recompute exactly the sources whose ζ-balls contained the
// vertex, plus the vertex itself, and nothing on a second detach of the
// same vertex.
func TestEngineRecomputesOnlyBall(t *testing.T) {
	pg, vs := clusteredPG(6, 8) // ball = one 8-chain ≪ n/2, no bulk fallback
	tau := 0.8
	e := pg.InferAll(tau)
	n := pg.Graph().NumVertices()
	if e.Recomputes() != int64(n) {
		t.Fatalf("initial build: %d recomputes, want %d", e.Recomputes(), n)
	}

	mid := pg.Graph().IndexOf(vs[4])
	ball := e.ballSize(vs[4])
	if ball == 0 {
		t.Fatalf("mid-chain vertex unexpectedly unreachable")
	}
	e.DetachVertex(mid)
	if got, want := e.pendingSources(), ball+1; got != want {
		t.Fatalf("pending sources = %d, want ball+self = %d", got, want)
	}
	e.Sync()
	if got, want := e.Recomputes(), int64(n+ball+1); got != want {
		t.Fatalf("after detach: %d recomputes, want %d", got, want)
	}
	assertMatchesOracle(t, e, tau, "after detach")

	// Re-detaching a detached vertex is a no-op.
	e.DetachVertex(mid)
	if e.pendingSources() != 0 {
		t.Fatalf("re-detach dirtied %d sources", e.pendingSources())
	}
	e.Sync()
	if got, want := e.Recomputes(), int64(n+ball+1); got != want {
		t.Fatalf("re-detach triggered recomputes: %d, want %d", got, want)
	}

	// A strengthened edge is no different: it dirties its tail and the
	// sources that could see the tail, not the whole graph.
	tail := vs[8] // head of the second chain
	want := e.ballSize(tail) + 1
	e.editSlot(pg.slot(8, 9), 0.999)
	if got := e.pendingSources(); got != want {
		t.Fatalf("strengthened edge dirtied %d sources, want rev[tail]+tail = %d", got, want)
	}
	e.Sync()
	assertMatchesOracle(t, e, tau, "after strengthened edge")
}

// TestBulkRebuildRefillsReverseIndex: a bulk rebuild of a warm engine
// lays its reverse index out in the storage the previous one left — the
// flat rows, the offsets and the row headers — even after an incremental
// Sync has filtered and grown rows in between, and the index it leaves
// is the oracle's.
func TestBulkRebuildRefillsReverseIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pg := randomPG(rng, 120, 0.05)
	const tau = 0.7
	e := pg.InferAll(tau)
	e.InvalidateAll()
	e.Sync()
	if len(e.revFlat) == 0 {
		t.Fatal("fixture has empty balls")
	}
	flat, start, rows := &e.revFlat[0], &e.revStart[0], &e.rev[0]
	for round := 0; round < 3; round++ {
		e.DetachVertex(rng.Intn(pg.g.NumVertices()))
		e.Sync()
		before := e.Recomputes()
		e.InvalidateAll()
		e.Sync()
		ctx := fmt.Sprintf("round %d", round)
		if &e.revFlat[0] != flat || &e.revStart[0] != start || &e.rev[0] != rows {
			t.Fatalf("%s: the bulk rebuild allocated a new reverse index (flat %v, offsets %v, headers %v)", ctx,
				&e.revFlat[0] != flat, &e.revStart[0] != start, &e.rev[0] != rows)
		}
		if ran := e.Recomputes() - before; ran != int64(e.live) {
			t.Fatalf("%s: the bulk rebuild ran %d Dijkstras, want %d", ctx, ran, e.live)
		}
		assertMatchesOracle(t, e, tau, ctx)
	}
}

func TestEngineResetResizes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pg1 := randomPG(rng, 20, 0.15)
	e := pg1.InferAll(0.8)
	pg2 := randomPG(rng, 35, 0.1) // different vertex count
	e.Reset(pg2)
	e.Sync()
	assertMatchesOracle(t, e, 0.8, "after reset")
}

func TestZetaOfRejectsInvalidTau(t *testing.T) {
	for _, tau := range []float64{0, -0.3, 1.0001, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("zetaOf(%v) did not panic", tau)
				}
			}()
			zetaOf(tau)
		}()
	}
	// Valid boundary values must not panic.
	if z := zetaOf(1); z < 0 || z > 1e-9 {
		t.Errorf("zetaOf(1) = %v, want ≈ 0", z)
	}
	if z := zetaOf(0.9); math.Abs(z+math.Log(0.9)) > 1e-9 {
		t.Errorf("zetaOf(0.9) = %v", z)
	}
}

// TestEngineRetirementProperty drives engines over random graphs and τ
// values through scripted mixes of vertex detaches, row rewrites (slot
// writes followed by InvalidateTails) and retirements. After every Sync
// each live source's ball must equal a fresh InferAll on the same graph bit
// for bit, a retired source must hold no ball and appear in no rev row, and
// the Sync must have run exactly one Dijkstra per dirty live source — one
// per live source when it fell back to a bulk rebuild.
func TestEngineRetirementProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // exercise the parallel recompute
	cases := []struct {
		n       int
		density float64
		seed    int64
	}{
		{8, 0.4, 401},
		{33, 0.15, 402},
		{90, 0.06, 403}, // crosses the parallel fan-out cutoff
		{150, 0.03, 404},
	}
	for _, tc := range cases {
		for _, tau := range []float64{1, 0.95, 0.8, 0.65} {
			rng := rand.New(rand.NewSource(tc.seed))
			pg := randomPG(rng, tc.n, tc.density)
			e := pg.InferAll(tau)
			for step := 0; step < 10; step++ {
				ctx := fmt.Sprintf("n=%d tau=%v step %d", tc.n, tau, step)
				for ops := 1 + rng.Intn(6); ops > 0; ops-- {
					switch i := rng.Intn(tc.n); rng.Intn(3) {
					case 0:
						e.DetachVertex(i)
					case 1:
						changed := false
						for s := pg.rowStart[i]; s < pg.rowStart[i+1]; s++ {
							if rng.Intn(2) == 0 && pg.writeSlot(s, rng.Float64()) {
								changed = true
							}
						}
						if changed {
							e.InvalidateTails([]int32{int32(i)})
						}
					case 2:
						e.Retire(i)
					}
				}
				pending, before := e.pendingSources(), e.Recomputes()
				e.Sync()
				if ran := e.Recomputes() - before; ran != int64(pending) {
					t.Fatalf("%s: Sync ran %d Dijkstras for %d dirty live sources", ctx, ran, pending)
				}
				fresh := pg.InferAll(tau)
				for i := 0; i < tc.n; i++ {
					if e.retired[i] {
						if e.dist[i] != nil {
							t.Fatalf("%s: retired source %d still holds a ball", ctx, i)
						}
						continue
					}
					if !slices.EqualFunc(e.dist[i], fresh.dist[i], func(a, b BallEntry) bool {
						return a.Idx == b.Idx && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
					}) {
						t.Fatalf("%s: ball %d = %v, fresh InferAll %v", ctx, i, e.dist[i], fresh.dist[i])
					}
				}
				for p := range e.rev {
					want := slices.DeleteFunc(slices.Clone(fresh.rev[p]), func(s int32) bool { return e.retired[s] })
					compareRevRows(t, ctx, p, e.rev[p], want)
				}
			}
		}
	}
}

// TestEngineRetiredBallServedUntilSync pins the snapshot a batch reads: a
// source retired after the last Sync — confirmed, or resolved a non-match
// and detached — keeps serving that Sync's ball however its neighborhood
// changes meanwhile; the next Sync drops it, and no later invalidation
// brings it back.
func TestEngineRetiredBallServedUntilSync(t *testing.T) {
	pg, vs := clusteredPG(6, 8)
	e := pg.InferAll(0.8)
	g := pg.Graph()
	confirmed, rejected := g.IndexOf(vs[2]), g.IndexOf(vs[10])
	want := map[int]Ball{confirmed: slices.Clone(e.Ball(confirmed)), rejected: slices.Clone(e.Ball(rejected))}
	e.Retire(confirmed)
	e.DetachVertex(4) // a batch-mate's cascade detaches a vertex of the ball
	e.Retire(rejected)
	e.DetachVertex(rejected)
	e.editSlot(pg.slot(11, 12), 0.999)
	for i, b := range want {
		if len(b) == 0 {
			t.Fatalf("fixture: source %d has an empty ball", i)
		}
		if got := e.Ball(i); !slices.Equal(got, b) {
			t.Fatalf("retired source %d: Ball = %v before the next Sync, want the last Sync's %v", i, got, b)
		}
	}
	e.Sync()
	fresh := pg.InferAll(0.8)
	for i := range e.dist {
		if !e.retired[i] {
			compareBalls(t, "live sources vs InferAll", "dist", i, e.dist[i], fresh.dist[i])
		}
	}
	for i := range want {
		if e.Ball(i) != nil {
			t.Fatalf("retired source %d still served a ball after Sync", i)
		}
	}
	before := e.Recomputes()
	e.InvalidateTails([]int32{int32(confirmed)})
	e.Sync()
	if ran := e.Recomputes() - before; ran != int64(len(e.rev[confirmed])) {
		t.Fatalf("invalidating a retired row ran %d Dijkstras, want its %d live viewers", ran, len(e.rev[confirmed]))
	}
}
