package ergraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/partition"
)

// This file keeps the edge-list builder the flat rows replaced, verbatim in
// behavior, as the oracle Build and Subgraph are tested against: edges
// appended per vertex as structs, each list ordered by sort.Slice on
// (To, From, Label), dense indexes and label groups derived from the lists
// through map lookups.

// oracleEdge is a labeled directed edge between two vertices (entity pairs).
type oracleEdge struct {
	From  pair.Pair
	To    pair.Pair
	Label RelPair
}

// oracleGraph is the historical Graph: every edge stored as a struct in
// out and in, with the dense rows derived from those lists.
type oracleGraph struct {
	vertices []pair.Pair
	index    map[pair.Pair]int
	// out[i] lists edges leaving vertex i; in[i] lists edges entering it.
	out [][]oracleEdge
	in  [][]oracleEdge
	// Dense topology, one flat array per direction: vertex i's out-edges
	// out[i][k] end at vertex outTo[outStart[i]+k], and its in-edges
	// in[i][k] start at inFrom[inStart[i]+k].
	outStart, inStart []int32
	outTo, inFrom     []int32

	// labels are the distinct edge labels, sorted by RelPair.Less; a label's
	// position is its index in every label-addressed array downstream (the
	// consistency estimates of a rewrite, the loop's per-label statistics).
	labels []RelPair
	// Label groups, computed once: vertex i's out-edges grouped by label
	// are groups grpStart[i]..grpStart[i+1], in label order. Group k has
	// label index grpLabel[k] and lists its edges as positions into out[i]
	// (ascending, so in stored edge order) at grpEdge[grpEnd[k-1]:grpEnd[k]].
	grpStart []int32
	grpLabel []int32
	grpEnd   []int32
	grpEdge  []int32
}

// buildOracle constructs the ER graph on the given vertex set (the retained
// match set Mrd). For every vertex (u1,u2) and every relationship pair
// (r1,r2) with u1 having r1-successors and u2 having r2-successors, an
// edge is added to each successor pair that is also a vertex.
func buildOracle(k1, k2 *kb.KB, vertices []pair.Pair) *oracleGraph {
	g := &oracleGraph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]oracleEdge, len(vertices)),
		in:       make([][]oracleEdge, len(vertices)),
	}
	for i, v := range g.vertices {
		g.index[v] = i
	}
	for i, v := range g.vertices {
		for _, r1 := range k1.OutRels(v.U1) {
			n1 := k1.Out(v.U1, r1)
			for _, r2 := range k2.OutRels(v.U2) {
				n2 := k2.Out(v.U2, r2)
				g.addEdges(i, v, n1, n2, RelPair{R1: r1, R2: r2})
			}
		}
		for _, r1 := range k1.InRels(v.U1) {
			n1 := k1.In(v.U1, r1)
			for _, r2 := range k2.InRels(v.U2) {
				n2 := k2.In(v.U2, r2)
				g.addEdges(i, v, n1, n2, RelPair{R1: r1, R2: r2, Inverse: true})
			}
		}
	}
	for i := range g.out {
		sortEdges(g.out[i])
		sortEdges(g.in[i])
	}
	g.buildDenseIndexes()
	g.buildLabelGroups()
	return g
}

// buildDenseIndexes fills the flat topology rows from the (sorted) edge
// lists. It is the only per-edge pair hashing the graph ever pays;
// everything downstream reads the dense arrays.
func (g *oracleGraph) buildDenseIndexes() {
	n := len(g.vertices)
	edges := g.numEdges()
	g.outStart = make([]int32, n+1)
	g.inStart = make([]int32, n+1)
	g.outTo = make([]int32, 0, edges)
	g.inFrom = make([]int32, 0, edges)
	for i := 0; i < n; i++ {
		for _, e := range g.out[i] {
			g.outTo = append(g.outTo, int32(g.index[e.To]))
		}
		for _, e := range g.in[i] {
			g.inFrom = append(g.inFrom, int32(g.index[e.From]))
		}
		g.outStart[i+1] = int32(len(g.outTo))
		g.inStart[i+1] = int32(len(g.inFrom))
	}
}

// buildLabelGroups derives the sorted label list and the per-vertex label
// groups from the edge lists. Within a vertex the groups follow
// RelPair.Less and each group keeps the stored edge order (ascending To):
// exactly the sequences neighbor propagation consumes, so no consumer
// regroups or re-sorts per build.
func (g *oracleGraph) buildLabelGroups() {
	labelIdx := make(map[RelPair]int32)
	for _, es := range g.out {
		for _, e := range es {
			labelIdx[e.Label] = 0
		}
	}
	g.labels = make([]RelPair, 0, len(labelIdx))
	for l := range labelIdx {
		g.labels = append(g.labels, l)
	}
	sort.Slice(g.labels, func(i, j int) bool { return g.labels[i].Less(g.labels[j]) })
	for i, l := range g.labels {
		labelIdx[l] = int32(i)
	}

	n := len(g.vertices)
	g.grpStart = make([]int32, n+1)
	g.grpEdge = make([]int32, 0, len(g.outTo))
	// keys packs (label index, edge position) so one integer sort groups a
	// vertex's edges by label while keeping the stored order inside a group.
	var keys []int64
	for i, es := range g.out {
		keys = keys[:0]
		for k, e := range es {
			keys = append(keys, int64(labelIdx[e.Label])<<32|int64(k))
		}
		slices.Sort(keys)
		for x, key := range keys {
			if x > 0 && key>>32 == keys[x-1]>>32 {
				g.grpEnd[len(g.grpEnd)-1]++
			} else {
				g.grpLabel = append(g.grpLabel, int32(key>>32))
				g.grpEnd = append(g.grpEnd, int32(len(g.grpEdge))+1)
			}
			g.grpEdge = append(g.grpEdge, int32(key&0xffffffff))
		}
		g.grpStart[i+1] = int32(len(g.grpLabel))
	}
	g.grpLabel = slices.Clip(g.grpLabel)
	g.grpEnd = slices.Clip(g.grpEnd)
}

// addEdges links vertex i to every successor pair (w1, w2) ∈ n1×n2 that is
// itself a vertex, under the given label.
func (g *oracleGraph) addEdges(i int, v pair.Pair, n1, n2 []kb.EntityID, label RelPair) {
	for _, w1 := range n1 {
		for _, w2 := range n2 {
			to := pair.Pair{U1: w1, U2: w2}
			j, ok := g.index[to]
			if !ok || j == i {
				continue
			}
			e := oracleEdge{From: v, To: to, Label: label}
			g.out[i] = append(g.out[i], e)
			g.in[j] = append(g.in[j], e)
		}
	}
}

func sortEdges(es []oracleEdge) {
	sort.Slice(es, func(a, b int) bool {
		if es[a].To != es[b].To {
			return es[a].To.Less(es[b].To)
		}
		if es[a].From != es[b].From {
			return es[a].From.Less(es[b].From)
		}
		return es[a].Label.Less(es[b].Label)
	})
}

// subgraph returns the induced subgraph on the given vertices (a subset
// of g's vertex set, in any order): edges with either endpoint outside the
// subset are dropped, and surviving edge slices keep the parent's sorted
// order. Extracting a connected component this way is loss-free — every
// incident edge survives — so a per-shard pipeline built on a component
// subgraph sees exactly the evidence the monolithic graph would.
func (g *oracleGraph) subgraph(vertices []pair.Pair) *oracleGraph {
	sub := &oracleGraph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]oracleEdge, len(vertices)),
		in:       make([][]oracleEdge, len(vertices)),
		outStart: make([]int32, len(vertices)+1),
		inStart:  make([]int32, len(vertices)+1),
	}
	for i, v := range sub.vertices {
		sub.index[v] = i
	}
	// remap[gi] is the subgraph index of parent vertex gi, or -1 when it was
	// dropped. One hash per subgraph vertex; edge filtering below is pure
	// array arithmetic over the parent's dense indexes.
	remap := make([]int32, len(g.vertices))
	for gi := range remap {
		remap[gi] = -1
	}
	for i, v := range sub.vertices {
		if gi, ok := g.index[v]; ok {
			remap[gi] = int32(i)
		}
	}
	for i, v := range sub.vertices {
		if gi, ok := g.index[v]; ok {
			outIdx, inIdx := g.outTo[g.outStart[gi]:g.outStart[gi+1]], g.inFrom[g.inStart[gi]:g.inStart[gi+1]]
			for k, e := range g.out[gi] {
				if nj := remap[outIdx[k]]; nj >= 0 {
					sub.out[i] = append(sub.out[i], e)
					sub.outTo = append(sub.outTo, nj)
				}
			}
			for k, e := range g.in[gi] {
				if nj := remap[inIdx[k]]; nj >= 0 {
					sub.in[i] = append(sub.in[i], e)
					sub.inFrom = append(sub.inFrom, nj)
				}
			}
		}
		sub.outStart[i+1] = int32(len(sub.outTo))
		sub.inStart[i+1] = int32(len(sub.inFrom))
	}
	sub.outTo = slices.Clip(sub.outTo)
	sub.inFrom = slices.Clip(sub.inFrom)
	sub.buildLabelGroups()
	return sub
}

// numEdges returns the total directed edge count.
func (g *oracleGraph) numEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// randomKBs draws two small KBs over nEnt entities and nRel relationships
// each. Triples are dense enough that vertex pairs are linked under several
// labels at once, and some run from an entity to itself, so a vertex can be
// its own successor pair (a would-be self-loop Build must skip).
func randomKBs(rng *rand.Rand, nEnt, nRel, nTriples int) (*kb.KB, *kb.KB) {
	gen := func(name string) *kb.KB {
		k := kb.New(name)
		for u := 0; u < nEnt; u++ {
			k.AddEntity(fmt.Sprintf("%s:e%d", name, u))
		}
		for r := 0; r < nRel; r++ {
			k.AddRel(fmt.Sprintf("r%d", r))
		}
		for x := 0; x < nTriples; x++ {
			u, v := kb.EntityID(rng.Intn(nEnt)), kb.EntityID(rng.Intn(nEnt))
			if rng.Intn(6) == 0 {
				v = u
			}
			k.AddRelTriple(u, kb.RelID(rng.Intn(nRel)), v)
		}
		return k
	}
	return gen("k1"), gen("k2")
}

// randomVertices draws n distinct pairs over nEnt×nEnt in random order, so
// the vertex list is (almost surely) not in pair order.
func randomVertices(rng *rand.Rand, nEnt, n int) []pair.Pair {
	var vs []pair.Pair
	for _, x := range rng.Perm(nEnt * nEnt)[:n] {
		vs = append(vs, pair.Pair{U1: kb.EntityID(x / nEnt), U2: kb.EntityID(x % nEnt)})
	}
	return vs
}

// requireMatchesOracle compares every array of g with the oracle's, and the
// label rows with the labels on the oracle's edge structs.
func requireMatchesOracle(t *testing.T, g *Graph, o *oracleGraph, ctx string) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"outStart", g.outStart, o.outStart}, {"outTo", g.outTo, o.outTo},
		{"inStart", g.inStart, o.inStart}, {"inFrom", g.inFrom, o.inFrom},
		{"grpStart", g.grpStart, o.grpStart}, {"grpLabel", g.grpLabel, o.grpLabel},
		{"grpEnd", g.grpEnd, o.grpEnd}, {"grpEdge", g.grpEdge, o.grpEdge},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s: %s = %v, oracle %v", ctx, f.name, f.got, f.want)
		}
	}
	if !slices.Equal(g.vertices, o.vertices) || !slices.Equal(g.labels, o.labels) {
		t.Fatalf("%s: vertices/labels differ: %v %v, oracle %v %v", ctx, g.vertices, g.labels, o.vertices, o.labels)
	}
	if g.NumEdges() != o.numEdges() {
		t.Fatalf("%s: NumEdges = %d, oracle %d", ctx, g.NumEdges(), o.numEdges())
	}
	for i, v := range g.vertices {
		if !slices.Equal(outEdges(g, v), o.out[i]) {
			t.Fatalf("%s: out-row of %v reads %v, oracle %v", ctx, v, outEdges(g, v), o.out[i])
		}
		if !slices.Equal(inEdges(g, v), o.in[i]) {
			t.Fatalf("%s: in-row of %v reads %v, oracle %v", ctx, v, inEdges(g, v), o.in[i])
		}
	}
}

// TestBuildMatchesEdgeListOracle: over random KBs and shuffled vertex lists,
// the rows, label rows, label list and groups Build lays out equal the ones
// the edge-list builder derives. The counters at the end prove the draws
// covered what makes the order non-trivial.
func TestBuildMatchesEdgeListOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var unsorted, parallel, selfLoops, inverse int
	for trial := 0; trial < 200; trial++ {
		nEnt := 3 + rng.Intn(6)
		k1, k2 := randomKBs(rng, nEnt, 1+rng.Intn(3), rng.Intn(5*nEnt))
		vs := randomVertices(rng, nEnt, 1+rng.Intn(nEnt*nEnt))
		g, o := Build(k1, k2, vs), buildOracle(k1, k2, vs)
		requireMatchesOracle(t, g, o, fmt.Sprintf("trial %d", trial))
		// The out-rows carry the whole graph: FromRows derives the rest.
		back, err := FromRows(g.vertices, g.labels, g.outStart, g.outTo, g.outLabel)
		if err != nil || !reflect.DeepEqual(back, g) {
			t.Fatalf("trial %d: FromRows over the graph's own out-rows (error %v) differs from it", trial, err)
		}

		if !sort.SliceIsSorted(vs, func(a, b int) bool { return vs[a].Less(vs[b]) }) {
			unsorted++
		}
		for i, v := range vs {
			es := o.out[i]
			for k := 1; k < len(es); k++ {
				if es[k].To == es[k-1].To && es[k].Label != es[k-1].Label {
					parallel++
				}
			}
			for _, r1 := range k1.OutRels(v.U1) {
				for _, r2 := range k2.OutRels(v.U2) {
					if slices.Contains(k1.Out(v.U1, r1), v.U1) && slices.Contains(k2.Out(v.U2, r2), v.U2) {
						selfLoops++
					}
				}
			}
		}
		for _, l := range g.Labels() {
			if l.Inverse {
				inverse++
			}
		}
	}
	if unsorted == 0 || parallel == 0 || selfLoops == 0 || inverse == 0 {
		t.Fatalf("draws no longer cover the hard cases: %d unsorted vertex lists, %d parallel edges, %d would-be self-loops, %d inverse labels",
			unsorted, parallel, selfLoops, inverse)
	}
}

// TestSubgraphEqualsBuildOnClosedSet: for random partitions of a random
// graph into component-closed shards, Subgraph over a shard's vertex list
// equals both Build and the oracle's subgraph over the same list, and the
// out- and in-rows hold the same edges.
func TestSubgraphEqualsBuildOnClosedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	multiShard := 0
	for trial := 0; trial < 100; trial++ {
		nEnt := 4 + rng.Intn(5)
		k1, k2 := randomKBs(rng, nEnt, 1+rng.Intn(3), rng.Intn(2*nEnt))
		vs := randomVertices(rng, nEnt, 1+rng.Intn(nEnt*nEnt))
		g, o := Build(k1, k2, vs), buildOracle(k1, k2, vs)
		part := partition.Split(g.Vertices(), g.OutIndexesAt, 1+rng.Intn(4))
		if part.NumShards() > 1 {
			multiShard++
		}
		for s := 0; s < part.NumShards(); s++ {
			ctx := fmt.Sprintf("trial %d shard %d/%d", trial, s, part.NumShards())
			shard := part.Shard(s)
			sub, built := g.Subgraph(shard), Build(k1, k2, shard)
			requireMatchesOracle(t, sub, o.subgraph(shard), ctx)
			requireMatchesOracle(t, built, buildOracle(k1, k2, shard), ctx+" (Build)")
			if !slices.Equal(sub.outLabel, built.outLabel) || !slices.Equal(sub.inLabel, built.inLabel) || !slices.Equal(sub.byPair, built.byPair) {
				t.Fatalf("%s: Subgraph and Build disagree on the label rows or the pair order", ctx)
			}
			// Edge for edge: (from, to, label) read off the out-rows and off
			// the in-rows are the same multiset.
			edges := map[[3]int32]int{}
			for i := range shard {
				for k, j := range sub.OutIndexesAt(i) {
					edges[[3]int32{int32(i), j, sub.OutLabelsAt(i)[k]}]++
				}
				for k, j := range sub.InIndexesAt(i) {
					edges[[3]int32{j, int32(i), sub.InLabelsAt(i)[k]}]--
				}
			}
			for e, n := range edges {
				if n != 0 {
					t.Fatalf("%s: edge %v appears %+d more times in the out-rows than in the in-rows", ctx, e, n)
				}
			}
		}
	}
	if multiShard == 0 {
		t.Fatal("no trial split into more than one shard")
	}
}

// TestIndexOfMatchesMapOracle: IndexOf, a binary search over the vertices in
// pair order, answers what the oracle's map answers — on graphs from Build,
// FromRows and Subgraph over shuffled vertex lists, for every pair over the
// entities and one past them, so for vertices and non-vertices alike.
func TestIndexOfMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hits, misses := 0, 0
	for trial := 0; trial < 200; trial++ {
		nEnt := 2 + rng.Intn(7)
		k1, k2 := randomKBs(rng, nEnt, 1+rng.Intn(3), rng.Intn(3*nEnt))
		vs := randomVertices(rng, nEnt, 1+rng.Intn(nEnt*nEnt))
		g, o := Build(k1, k2, vs), buildOracle(k1, k2, vs)
		back, err := FromRows(g.vertices, g.labels, g.outStart, g.outTo, g.outLabel)
		if err != nil {
			t.Fatalf("trial %d: FromRows: %v", trial, err)
		}
		subset := slices.Clone(vs[:rng.Intn(len(vs)+1)])
		rng.Shuffle(len(subset), func(a, b int) { subset[a], subset[b] = subset[b], subset[a] })
		for _, c := range []struct {
			name  string
			g     *Graph
			index map[pair.Pair]int
		}{{"Build", g, o.index}, {"FromRows", back, o.index}, {"Subgraph", g.Subgraph(subset), o.subgraph(subset).index}} {
			for x := 0; x < (nEnt+1)*(nEnt+1); x++ {
				p := pair.Pair{U1: kb.EntityID(x / (nEnt + 1)), U2: kb.EntityID(x % (nEnt + 1))}
				want, ok := c.index[p]
				if !ok {
					want = -1
					misses++
				} else {
					hits++
				}
				if got := c.g.IndexOf(p); got != want {
					t.Fatalf("trial %d, %s graph: IndexOf(%v) = %d, oracle %d", trial, c.name, p, got, want)
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("probes covered %d vertices and %d non-vertices", hits, misses)
	}
}

// TestRepeatedVertexRejected: a vertex list that repeats a pair is not a
// vertex set. The one check behind all three constructors refuses it,
// naming the pair: Build and Subgraph panic, FromRows returns an error
// that says the vertices must be distinct.
func TestRepeatedVertexRejected(t *testing.T) {
	g, ps := buildFig1()
	twice := []pair.Pair{ps["tim"], ps["joan"], ps["cradle"], ps["joan"]}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), ps["joan"].String()) {
				t.Errorf("%s over a repeated pair: panic %v, want one naming %v", name, r, ps["joan"])
			}
		}()
		f()
	}
	k1, k2, _ := figure1KBs()
	mustPanic("Build", func() { Build(k1, k2, twice) })
	mustPanic("Subgraph", func() { g.Subgraph(twice) })
	_, err := FromRows(twice, nil, make([]int32, len(twice)+1), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "distinct") || !strings.Contains(err.Error(), ps["joan"].String()) {
		t.Errorf("FromRows over a repeated pair: error %v, want one naming %v and saying distinct", err, ps["joan"])
	}
}
