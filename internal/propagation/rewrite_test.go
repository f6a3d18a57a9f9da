package propagation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// labeledWorld is a random KB pair and ER graph with several edge labels
// in both directions: ents entities per side, rels relationships per
// side, fanout random triples per entity and relationship, and the vertex
// set drawn from all entity pairs with probability keep.
type labeledWorld struct {
	k1, k2 *kb.KB
	g      *ergraph.Graph
	priors map[pair.Pair]float64
}

func randomLabeledWorld(rng *rand.Rand, ents, rels, fanout int, keep float64) *labeledWorld {
	w := &labeledWorld{k1: kb.New("k1"), k2: kb.New("k2"), priors: map[pair.Pair]float64{}}
	for _, k := range []*kb.KB{w.k1, w.k2} {
		for i := 0; i < ents; i++ {
			k.AddEntity(fmt.Sprintf("%s-%d", k.Name(), i))
		}
		for r := 0; r < rels; r++ {
			rel := k.AddRel(fmt.Sprintf("r%d", r))
			for u := 0; u < ents; u++ {
				for f := 0; f < fanout; f++ {
					if v := rng.Intn(ents); v != u {
						k.AddRelTriple(kb.EntityID(u), rel, kb.EntityID(v))
					}
				}
			}
		}
	}
	var verts []pair.Pair
	for u1 := 0; u1 < ents; u1++ {
		for u2 := 0; u2 < ents; u2++ {
			if u1 == u2 || rng.Float64() < keep {
				v := pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
				verts = append(verts, v)
				if rng.Intn(4) > 0 { // the rest take the default prior
					w.priors[v] = rng.Float64()
				}
			}
		}
	}
	rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
	w.g = ergraph.Build(w.k1, w.k2, verts)
	return w
}

// densePriors returns every vertex's prior by index, as a Rewriter takes
// them.
func (w *labeledWorld) densePriors() []float64 {
	priors := make([]float64, w.g.NumVertices())
	for i, v := range w.g.Vertices() {
		priors[i] = defaultPrior
		if p, ok := w.priors[v]; ok {
			priors[i] = p
		}
	}
	return priors
}

// randomEstimates draws (ε1, ε2) for a random subset of the labels; the
// others fall back to the 0.5 default.
func randomEstimates(rng *rand.Rand, labels []ergraph.RelPair) map[ergraph.RelPair]consistency.Estimate {
	est := map[ergraph.RelPair]consistency.Estimate{}
	for _, l := range labels {
		if rng.Intn(5) > 0 {
			est[l] = consistency.Estimate{Eps1: 0.05 + 0.9*rng.Float64(), Eps2: 0.05 + 0.9*rng.Float64()}
		}
	}
	return est
}

// assertSameCSR compares every array of two probabilistic graphs bitwise.
func assertSameCSR(t *testing.T, ctx string, got, want *ProbGraph) {
	t.Helper()
	if !slices.Equal(got.rowStart, want.rowStart) || !slices.Equal(got.colIdx, want.colIdx) {
		t.Fatalf("%s: CSR layout differs", ctx)
	}
	if !slices.Equal(got.inRowStart, want.inRowStart) || !slices.Equal(got.inSrc, want.inSrc) || !slices.Equal(got.inPos, want.inPos) {
		t.Fatalf("%s: in-CSR mirror differs", ctx)
	}
	for e := range want.prob {
		if math.Float64bits(got.prob[e]) != math.Float64bits(want.prob[e]) {
			t.Fatalf("%s: prob[%d] = %v (%x), want %v (%x)", ctx, e, got.prob[e], math.Float64bits(got.prob[e]), want.prob[e], math.Float64bits(want.prob[e]))
		}
		if math.Float64bits(got.length[e]) != math.Float64bits(want.length[e]) {
			t.Fatalf("%s: length[%d] = %v, want %v", ctx, e, got.length[e], want.length[e])
		}
	}
	if !slices.Equal(got.outDeg, want.outDeg) || !slices.Equal(got.inDeg, want.inDeg) {
		t.Fatalf("%s: live degrees differ", ctx)
	}
}

// TestDensePosteriorsMatchMapOracle pins the dense-array bitmask DP to the
// map-based one it replaced, bit for bit, on random neighborhoods of every
// shape: exact on either side, swapped, and the approximation.
func TestDensePosteriorsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ms matchScratch // shared across instances, as BuildProb shares it
	for iter := 0; iter < 60; iter++ {
		rows, cols := 1+rng.Intn(14), 1+rng.Intn(14)
		nb := &Neighborhood{Eps1: rng.Float64(), Eps2: rng.Float64()}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Intn(3) == 0 {
					nb.Cands = append(nb.Cands, CandidatePair{Row: r, Col: c, Prior: rng.Float64()})
				}
			}
		}
		if len(nb.Cands) == 0 {
			continue
		}
		want := posteriorsOracle(nb)
		got := ms.posteriors(nb.Cands, nb.Eps1, nb.Eps2, false)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("iter %d (%dx%d, %d cands): posterior %d = %v, map oracle %v", iter, rows, cols, len(nb.Cands), i, got[i], want[i])
			}
		}
		wantApprox := approxPosteriorsOracle(nb.Cands, weightsOracle(nb))
		gotApprox := ms.posteriors(nb.Cands, nb.Eps1, nb.Eps2, true)
		for i := range wantApprox {
			if math.Float64bits(gotApprox[i]) != math.Float64bits(wantApprox[i]) {
				t.Fatalf("iter %d: approx posterior %d = %v, oracle %v", iter, i, gotApprox[i], wantApprox[i])
			}
		}
	}
}

// rewriteCases are the random worlds the rewrite tests run on: sparse and
// dense, single- and multi-label, and one hub-heavy world whose groups
// exceed the exact-marginalization bound.
var rewriteCases = []struct {
	ents, rels, fanout int
	keep               float64
	seed               int64
}{
	{8, 1, 1, 0.3, 201},
	{14, 2, 2, 0.25, 202},
	{25, 3, 1, 0.08, 203},
	{40, 4, 2, 0.04, 204},
	{40, 1, 150, 0.12, 205}, // hubs: ~39 values a side, ~200 candidates per group
}

// TestBuildProbMatchesMapOracle checks the kernel end to end: BuildProb on
// precomputed label groups and dense scratch equals the historical
// map-based construction bitwise.
func TestBuildProbMatchesMapOracle(t *testing.T) {
	for _, tc := range rewriteCases {
		rng := rand.New(rand.NewSource(tc.seed))
		w := randomLabeledWorld(rng, tc.ents, tc.rels, tc.fanout, tc.keep)
		params := Params{Priors: w.priors, Consistency: randomEstimates(rng, w.g.Labels())}
		ctx := fmt.Sprintf("ents=%d rels=%d seed=%d", tc.ents, tc.rels, tc.seed)
		pg := BuildProb(w.g, w.k1, w.k2, params)
		assertSameCSR(t, ctx, pg, buildProbOracle(w.g, params))
		back, err := FromProbs(w.g, slices.Clone(pg.Probs()))
		if err != nil {
			t.Fatalf("%s: FromProbs over the graph's own probabilities: %v", ctx, err)
		}
		assertSameCSR(t, ctx+" (FromProbs)", back, pg)
	}
}

// TestRewriteMatchesBuildProb is the property test for the label-scoped
// in-place rewrite: over random graphs, random growing detached sets and
// random sequences of estimate changes — single labels, several at once,
// a label changing back, no change at all — the rewritten graph must equal
// a BuildProb from scratch with the detached vertices re-detached, in
// every array, and the reported tails must be exactly the rows with a
// changed slot.
func TestRewriteMatchesBuildProb(t *testing.T) {
	for _, tc := range rewriteCases {
		rng := rand.New(rand.NewSource(tc.seed))
		w := randomLabeledWorld(rng, tc.ents, tc.rels, tc.fanout, tc.keep)
		labels := w.g.Labels()
		n := w.g.NumVertices()
		if len(labels) == 0 {
			t.Fatalf("seed %d: world has no edges", tc.seed)
		}
		est := randomEstimates(rng, labels)
		pg := BuildProb(w.g, w.k1, w.k2, Params{Priors: w.priors, Consistency: est})
		priors := w.densePriors()
		rw := NewRewriter(pg, priors, est)
		detached := make([]bool, n)
		history := []map[ergraph.RelPair]consistency.Estimate{est}
		for step := 0; step < 12; step++ {
			ctx := fmt.Sprintf("seed %d step %d", tc.seed, step)
			for d := rng.Intn(3); d > 0; d-- {
				i := rng.Intn(n)
				detached[i] = true
				pg.detachAt(i)
			}
			next := map[ergraph.RelPair]consistency.Estimate{}
			switch rng.Intn(5) {
			case 0: // everything moves
				next = randomEstimates(rng, labels)
			case 1: // back to an earlier set of estimates
				next = history[rng.Intn(len(history))]
			case 2: // nothing moves
				next = history[len(history)-1]
			default: // a few labels move
				for l, e := range history[len(history)-1] {
					next[l] = e
				}
				for c := 1 + rng.Intn(2); c > 0; c-- {
					l := labels[rng.Intn(len(labels))]
					next[l] = consistency.Estimate{Eps1: 0.05 + 0.9*rng.Float64(), Eps2: 0.05 + 0.9*rng.Float64()}
				}
			}
			history = append(history, next)

			before := slices.Clone(pg.prob)
			tails := slices.Clone(rw.Apply(next, detached))

			want := BuildProb(w.g, w.k1, w.k2, Params{Priors: w.priors, Consistency: next})
			for i, d := range detached {
				if d {
					want.detachAt(i)
				}
			}
			assertSameCSR(t, ctx, pg, want)

			var changed []int32
			for i := 0; i < n; i++ {
				if !slices.Equal(before[pg.rowStart[i]:pg.rowStart[i+1]], pg.prob[pg.rowStart[i]:pg.rowStart[i+1]]) {
					changed = append(changed, int32(i))
				}
			}
			if !slices.Equal(tails, changed) {
				t.Fatalf("%s: Apply reported tails %v, rows that changed %v", ctx, tails, changed)
			}
		}
	}
}

// TestRewriteEnforcesSlotLayout covers the way a row's slots can disagree
// with what its label groups produce that a rewrite cannot repair in
// place — unreachable through BuildProb graphs, whose layout has a slot
// for every graph edge: a produced target the CSR has no slot for must
// panic instead of being lost.
func TestRewriteEnforcesSlotLayout(t *testing.T) {
	tc := rewriteCases[1]
	rng := rand.New(rand.NewSource(tc.seed))
	w := randomLabeledWorld(rng, tc.ents, tc.rels, tc.fanout, tc.keep)
	est := randomEstimates(rng, w.g.Labels())
	full := BuildProb(w.g, w.k1, w.k2, Params{Priors: w.priors, Consistency: est})
	n := w.g.NumVertices()
	priors := w.densePriors()
	next := map[ergraph.RelPair]consistency.Estimate{} // every label moves
	for _, l := range w.g.Labels() {
		next[l] = consistency.Estimate{Eps1: 0.05 + 0.9*rng.Float64(), Eps2: 0.05 + 0.9*rng.Float64()}
	}
	// The same graph with the first slot missing from its layout.
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = map[int]float64{}
		for e := full.rowStart[i]; e < full.rowStart[i+1]; e++ {
			if e > 0 {
				adj[i][int(full.colIdx[e])] = full.prob[e]
			}
		}
	}
	pg := probGraphFromAdj(w.g, adj)
	if len(pg.colIdx) != len(full.colIdx)-1 {
		t.Fatal("fixture: the layout should lack exactly one slot")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply silently dropped a recomputed edge that has no slot")
		}
	}()
	NewRewriter(pg, priors, est).Apply(next, make([]bool, n))
}

// assertSameBalls compares two engines' balls bitwise.
func assertSameBalls(t *testing.T, ctx string, got, want *Engine) {
	t.Helper()
	for i := range want.dist {
		if len(got.dist[i]) != len(want.dist[i]) {
			t.Fatalf("%s: ball %d has %d entries, fresh engine %d", ctx, i, len(got.dist[i]), len(want.dist[i]))
		}
		for k, w := range want.dist[i] {
			g := got.dist[i][k]
			if g.Idx != w.Idx || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
				t.Fatalf("%s: ball %d entry %d = %+v, fresh engine %+v", ctx, i, k, g, w)
			}
		}
		compareRevRows(t, ctx, i, got.rev[i], sortedRow(want.rev[i]))
	}
}

func sortedRow(row []int32) []int32 {
	out := slices.Clone(row)
	slices.Sort(out)
	return out
}

// TestEnginePartialInvalidationMixedEdits is the property test for the
// exact invalidation rule: batches mixing strengthened, weakened, removed
// and restored edges with vertex detaches must, after one Sync, leave balls bitwise equal to a fresh engine over the same graph
// and equal to the Floyd–Warshall oracle — and on a graph of disjoint
// components, edits inside some components must not run a single Dijkstra
// in the others.
func TestEnginePartialInvalidationMixedEdits(t *testing.T) {
	cases := []struct {
		comps, size int
		tau         float64
		seed        int64
	}{
		{10, 6, 0.8, 301},
		{24, 5, 0.7, 302},
		{40, 4, 0.9, 303},
		{16, 9, 0.6, 304},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pg, verts := clusteredPG(tc.comps, tc.size)
		n := len(verts)
		e := pg.InferAll(tc.tau)
		comp := func(i int) int { return i / tc.size }
		for step := 0; step < 8; step++ {
			ctx := fmt.Sprintf("seed %d step %d", tc.seed, step)
			// Edit a minority of the components, so the bulk fallback stays
			// off and the count below is meaningful.
			edited := map[int]bool{}
			for len(edited) < 1+tc.comps/6 {
				edited[rng.Intn(tc.comps)] = true
			}
			for c := range edited {
				for ops := 1 + rng.Intn(3); ops > 0; ops-- {
					// A chain's edges stay inside it, so do the slots of its rows.
					slot := pg.randomSlot(rng, c*tc.size, (c+1)*tc.size)
					switch old := pg.prob[slot]; rng.Intn(5) {
					case 0:
						e.DetachVertex(c*tc.size + rng.Intn(tc.size))
					case 1:
						e.editSlot(slot, 0) // remove
					case 2:
						e.editSlot(slot, old*0.5) // weaken (a no-op on a removed edge)
					case 3:
						e.editSlot(slot, old+0.3) // strengthen, or restore a removed edge
					case 4:
						e.editSlot(slot, 0.85+0.15*rng.Float64()) // overwrite either way
					}
				}
			}
			pending, before := e.pendingSources(), e.Recomputes()
			if pending > len(edited)*tc.size {
				t.Fatalf("%s: %d sources pending, but the edited components hold only %d", ctx, pending, len(edited)*tc.size)
			}
			var stale []Ball
			for i := 0; i < n; i++ {
				if !edited[comp(i)] {
					stale = append(stale, e.dist[i])
				}
			}
			e.Sync()
			if ran := e.Recomputes() - before; ran != int64(pending) {
				t.Fatalf("%s: Sync ran %d Dijkstras for %d pending sources", ctx, ran, pending)
			}
			for i, k := 0, 0; i < n; i++ {
				if !edited[comp(i)] {
					// An untouched component's balls are not merely equal:
					// they are the very slices of the previous Sync.
					if len(stale[k]) > 0 && &stale[k][0] != &e.dist[i][0] {
						t.Fatalf("%s: ball %d of untouched component %d was recomputed", ctx, i, comp(i))
					}
					k++
				}
			}
			assertSameBalls(t, ctx, e, pg.Clone().InferAll(tc.tau))
			assertMatchesOracle(t, e, tc.tau, ctx)
		}
	}
}

// TestCloneLeavesOriginalUntouched pins the copy-on-start contract shard
// states rely on: whatever a loop does to a Clone — slot writes, vertex
// detaches, a label rewrite — the graph it was cloned from keeps every
// array bit for bit (checked against a twin build that was never cloned) and infers the
// same balls, while the clone ends up exactly where the same edits take a
// graph built for it alone.
func TestCloneLeavesOriginalUntouched(t *testing.T) {
	const tau = 0.8
	for _, tc := range rewriteCases {
		rng := rand.New(rand.NewSource(tc.seed))
		w := randomLabeledWorld(rng, tc.ents, tc.rels, tc.fanout, tc.keep)
		n := w.g.NumVertices()
		est, next := randomEstimates(rng, w.g.Labels()), randomEstimates(rng, w.g.Labels())
		build := func() *ProbGraph {
			return BuildProb(w.g, w.k1, w.k2, Params{Priors: w.priors, Consistency: est})
		}
		priors := w.densePriors()
		orig, twin, own := build(), build(), build()
		balls := orig.InferAll(tau)
		clone := orig.Clone()
		detached := make([]bool, n)
		seed := rng.Int63()
		steps := []struct {
			name string
			edit func(pg *ProbGraph, rng *rand.Rand)
		}{
			{"slot writes", func(pg *ProbGraph, rng *rand.Rand) {
				for e := range pg.prob {
					if rng.Intn(3) == 0 {
						pg.writeSlot(int32(e), pg.prob[e]*rng.Float64())
					}
				}
			}},
			{"detach", func(pg *ProbGraph, rng *rand.Rand) {
				for d := 1 + n/4; d > 0; d-- {
					i := rng.Intn(n)
					detached[i] = true
					pg.detachAt(i)
				}
			}},
			{"Rewriter.Apply", func(pg *ProbGraph, _ *rand.Rand) {
				NewRewriter(pg, priors, est).Apply(next, detached)
			}},
		}
		for _, st := range steps {
			ctx := fmt.Sprintf("seed %d after %s on the clone", tc.seed, st.name)
			// The same edits, drawn from the same stream, on both graphs.
			st.edit(clone, rand.New(rand.NewSource(seed)))
			st.edit(own, rand.New(rand.NewSource(seed)))
			assertSameCSR(t, ctx+": clone vs own build", clone, own)
			assertSameCSR(t, ctx+": original vs twin", orig, twin)
			again := orig.InferAll(tau)
			for q := 0; q < n; q++ {
				compareBalls(t, ctx, "dist", q, again.dist[q], balls.dist[q])
			}
		}
	}
}

// TestProbGraphTopologyIsShared pins the fixed-topology contract: through
// a random schedule of detaches, label rewrites, partial syncs,
// bulk-fallback rebuilds and resets onto a new clone, the topology arrays
// of every loop's graph stay the very arrays of the prepared graph it was
// cloned from, the prepared graph keeps its weights, and the slot layout
// equals a fresh BuildProb's.
func TestProbGraphTopologyIsShared(t *testing.T) {
	const tau = 0.8
	sameArray := func(a, b []int32) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	for _, tc := range rewriteCases {
		rng := rand.New(rand.NewSource(tc.seed))
		w := randomLabeledWorld(rng, tc.ents, tc.rels, tc.fanout, tc.keep)
		n, labels := w.g.NumVertices(), w.g.Labels()
		est := randomEstimates(rng, labels)
		build := func() *ProbGraph {
			return BuildProb(w.g, w.k1, w.k2, Params{Priors: w.priors, Consistency: est})
		}
		prepared, fresh, priors := build(), build(), w.densePriors()
		type loop struct {
			pg       *ProbGraph
			e        *Engine
			rw       *Rewriter
			detached []bool
		}
		loops := make([]*loop, 3)
		for i := range loops {
			pg := prepared.Clone()
			loops[i] = &loop{pg, pg.InferAll(tau), NewRewriter(pg, priors, est), make([]bool, n)}
		}
		for step := 0; step < 40; step++ {
			l := loops[rng.Intn(len(loops))]
			op := rng.Intn(4)
			if step%10 == 9 {
				op = 4
			}
			switch op {
			case 0:
				i := rng.Intn(n)
				l.detached[i] = true
				l.e.DetachVertex(i)
			case 1:
				l.e.InvalidateTails(l.rw.Apply(randomEstimates(rng, labels), l.detached))
			case 2:
				l.e.Sync() // partial, unless enough is pending
			case 3:
				for i := 0; i < n; i++ {
					l.e.InvalidateTails([]int32{int32(i)})
				}
				if !l.e.full && !l.e.bulkFallback(len(l.e.dirty)) {
					t.Fatalf("seed %d step %d: every source is dirty but Sync would not rebuild in bulk", tc.seed, step)
				}
				l.e.Sync()
			case 4: // what a from-scratch resync does, over a new clone
				l.pg = prepared.Clone()
				l.rw = NewRewriter(l.pg, priors, est)
				l.e.Reset(l.pg)
				for i, d := range l.detached {
					if d {
						l.e.DetachVertex(i)
					}
				}
			}
			ctx := fmt.Sprintf("seed %d step %d (op %d)", tc.seed, step, op)
			assertSameCSR(t, ctx+": prepared vs fresh build", prepared, fresh)
			for _, l := range loops {
				if l.e.pg != l.pg {
					t.Fatalf("%s: the engine left its graph", ctx)
				}
				if !sameArray(l.pg.rowStart, prepared.rowStart) || !sameArray(l.pg.colIdx, prepared.colIdx) ||
					!sameArray(l.pg.inRowStart, prepared.inRowStart) || !sameArray(l.pg.inSrc, prepared.inSrc) ||
					!sameArray(l.pg.inPos, prepared.inPos) {
					t.Fatalf("%s: a loop's graph no longer shares the prepared topology", ctx)
				}
				if len(l.pg.prob) != len(fresh.prob) || &l.pg.prob[0] == &prepared.prob[0] || &l.pg.length[0] == &prepared.length[0] {
					t.Fatalf("%s: a loop's weights alias the prepared graph's", ctx)
				}
			}
		}
	}
}
