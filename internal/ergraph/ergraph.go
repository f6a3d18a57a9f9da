// Package ergraph implements the ER graph of Definition 2: a directed,
// edge-labeled multigraph whose vertices are candidate entity pairs and
// whose edges connect (u1,u2) → (u1′,u2′) with label (r1,r2) exactly when
// (u1,r1,u1′) ∈ T1 and (u2,r2,u2′) ∈ T2. A Graph is its flat rows (see
// Graph); nothing stores an edge as a struct.
package ergraph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
)

// RelPair is an edge label: a relationship from each KB. Inverse marks
// edges that traverse the relationships backwards (from object pair to
// subject pair): the paper's §V-B example propagates from (Tim, Tim) to
// the movies Tim directed through the *inverse* of directedBy, so the ER
// graph materializes both directions with distinct labels (each direction
// has its own consistency parameters).
type RelPair struct {
	R1      kb.RelID
	R2      kb.RelID
	Inverse bool
}

// Less is the canonical label order: (R1, R2), forward before inverse. It
// orders Labels, and through the label index the rows and the label groups,
// so every consumer processes labels differing only in direction in the
// same, specified order.
func (l RelPair) Less(m RelPair) bool {
	if l.R1 != m.R1 {
		return l.R1 < m.R1
	}
	if l.R2 != m.R2 {
		return l.R2 < m.R2
	}
	return !l.Inverse && m.Inverse
}

// Graph is an ER graph over a fixed vertex set: built once, then only read,
// and stored one way — three parallel flat rows per direction. A vertex is
// named by its dense index; IndexOf, a binary search over byPair, turns a
// pair into one where pairs come in from outside. The vertex list is a
// set. Vertex i's
// out-edges are slots outStart[i]..outStart[i+1] of outTo (target vertex
// index) and outLabel (label index); inStart/inFrom/inLabel hold the same
// edges by target. A row is sorted by its neighbours' pair order (pair.Less,
// whatever the vertex list's order), then by label index: the CSR slot order
// of every ProbGraph, the input order of the row kernel's marginalization
// and PARIS's product order, hence part of the byte-identity contract.
type Graph struct {
	vertices []pair.Pair
	// byPair lists the vertex indexes in pair order (pair.Less): IndexOf
	// searches it, and its inverse is the rows' sort key.
	byPair []int32

	outStart, outTo, outLabel []int32
	inStart, inFrom, inLabel  []int32

	// labels are the distinct edge labels, sorted by RelPair.Less; a label's
	// position is its index in every label-addressed array downstream (the
	// consistency estimates of a rewrite, the loop's per-label statistics).
	labels []RelPair
	// Label groups, computed once: vertex i's out-edges grouped by label
	// are groups grpStart[i]..grpStart[i+1], in label order. Group k has
	// label index grpLabel[k] and lists its edges as positions into i's
	// out-row (ascending, so in row order) at grpEdge[grpEnd[k-1]:grpEnd[k]].
	grpStart []int32
	grpLabel []int32
	grpEnd   []int32
	grpEdge  []int32
}

// edge is a collected edge on its way into a row: row is the vertex whose
// row it lands in, nbr the vertex at its other end.
type edge struct{ row, nbr, label int32 }

// Build's fan-out: a vertex list shorter than minParallelVertices is joined
// serially, since a range task costs more to start than a d-y-sized join;
// a longer one is cut into the pool's grains (par.Grains) of at least
// minRangeVertices each, so a hub-heavy range cannot hold a pool helper
// alone for long. The ranges never change the result.
const (
	minParallelVertices = 6144
	minRangeVertices    = 1024
)

// Build constructs the ER graph on the given vertex set (the retained
// match set Mrd). For every vertex (u1,u2) and every relationship pair
// (r1,r2) with u1 having r1-successors and u2 having r2-successors, an
// edge is added to each successor pair that is also a vertex. A pair listed
// twice panics, naming it.
//
// The vertex loop runs over contiguous vertex ranges, the pool's grains
// (par.Grains) on the process's pool once the list is long enough
// (minParallelVertices), which the workers take from one cursor. A
// successor's vertices are found through a table from K1 entity to its
// run of byPair, built for the call and dropped on return. Each range
// numbers its labels in first appearance; the numberings are merged into
// the one sorted label table before the rows are laid out (the out-rows
// and their label groups beside the in-rows), so the graph is the same
// whatever the ranges.
func Build(k1, k2 *kb.KB, vertices []pair.Pair) *Graph {
	var r par.Runner
	if len(vertices) >= minParallelVertices {
		r = par.Pool()
	}
	return build(k1, k2, vertices, r, len(par.Grains(r, len(vertices), minRangeVertices)))
}

// build is Build over the given number of vertex ranges, fanned through r
// (serial when r is nil).
func build(k1, k2 *kb.KB, vertices []pair.Pair, r par.Runner, ranges int) *Graph {
	g := mustGraph(vertices)
	j := newJoiner(g, k1, k2)
	spans := par.ChunkRanges(len(g.vertices), r, ranges)
	parts := make([]rangeEdges, len(spans))
	par.RunAll(r, len(spans), func(s int) { parts[s] = j.collect(spans[s].Lo, spans[s].Hi) })

	// The label table is the union of the ranges' labels, sorted; each
	// range's ids are remapped to their label's index in it.
	var all []RelPair
	for _, pt := range parts {
		all = append(all, pt.labels...)
	}
	slices.SortFunc(all, compareLabels)
	if all = slices.Compact(all); len(all) > 0 {
		g.labels = slices.Clone(all)
	}
	chunks := make([][]edge, len(parts))
	par.RunAll(r, len(parts), func(s int) {
		pt := &parts[s]
		index := make([]int32, len(pt.labels))
		for id, l := range pt.labels {
			li, _ := slices.BinarySearchFunc(g.labels, l, compareLabels)
			index[id] = int32(li)
		}
		for k := range pt.edges {
			pt.edges[k].label = index[pt.edges[k].label]
		}
		chunks[s] = pt.edges
	})
	// The out-rows (then the label groups) and the in-rows read the same
	// edges and write apart, so they are laid out side by side.
	rank := g.ranks()
	par.RunAll(r, 2, func(dir int) {
		if dir == 0 {
			g.outStart, g.outTo, g.outLabel = g.rows(chunks, rank, false)
			g.buildLabelGroups()
		} else {
			g.inStart, g.inFrom, g.inLabel = g.rows(chunks, rank, true)
		}
	})
	return g
}

// compareLabels is RelPair.Less as a three-way comparison.
func compareLabels(a, b RelPair) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// joiner holds what Build reads while it joins, for one call: for each K1
// entity u, its run of the vertices in pair order is
// g.byPair[runs[u]:runs[u+1]], and u2 holds the K2 entities of the vertices
// in pair order, so a run's K2 entities are one sorted slice beside it.
type joiner struct {
	g      *Graph
	k1, k2 *kb.KB
	runs   []int32
	u2     []kb.EntityID
}

func newJoiner(g *Graph, k1, k2 *kb.KB) *joiner {
	j := &joiner{g: g, k1: k1, k2: k2, u2: make([]kb.EntityID, len(g.byPair))}
	var top kb.EntityID // one past the largest K1 entity of a vertex: the last in pair order
	if n := len(g.byPair); n > 0 {
		top = g.vertices[g.byPair[n-1]].U1 + 1
	}
	j.runs = make([]int32, top+1)
	for r, i := range g.byPair {
		v := g.vertices[i]
		j.runs[v.U1+1]++
		j.u2[r] = v.U2
	}
	for u := range top {
		j.runs[u+1] += j.runs[u]
	}
	return j
}

// rangeEdges is one vertex range's share of Build: its edges, labelled by
// range-local ids, and the labels those ids name, in first appearance.
type rangeEdges struct {
	edges  []edge
	labels []RelPair
}

// collect joins vertices lo..hi-1 with their successors. A side-2
// relationship list is read once per vertex, and only when side 1 has
// relationships to pair it with.
func (j *joiner) collect(lo, hi int) rangeEdges {
	var pt rangeEdges
	ids := map[RelPair]int32{}
	add := func(i int, n1, n2 []kb.EntityID, label RelPair) {
		from := len(pt.edges)
		pt.edges = j.join(pt.edges, int32(i), n1, n2)
		if len(pt.edges) == from {
			return
		}
		id, ok := ids[label]
		if !ok {
			id = int32(len(pt.labels))
			ids[label] = id
			pt.labels = append(pt.labels, label)
		}
		for k := from; k < len(pt.edges); k++ {
			pt.edges[k].label = id
		}
	}
	for i := lo; i < hi; i++ {
		v := j.g.vertices[i]
		if rels1 := j.k1.OutRels(v.U1); len(rels1) > 0 {
			rels2 := j.k2.OutRels(v.U2)
			for _, r1 := range rels1 {
				n1 := j.k1.Out(v.U1, r1)
				for _, r2 := range rels2 {
					add(i, n1, j.k2.Out(v.U2, r2), RelPair{R1: r1, R2: r2})
				}
			}
		}
		if rels1 := j.k1.InRels(v.U1); len(rels1) > 0 {
			rels2 := j.k2.InRels(v.U2)
			for _, r1 := range rels1 {
				n1 := j.k1.In(v.U1, r1)
				for _, r2 := range rels2 {
					add(i, n1, j.k2.In(v.U2, r2), RelPair{R1: r1, R2: r2, Inverse: true})
				}
			}
		}
	}
	return pt
}

// join appends an edge from vertex i to every successor pair
// (w1, w2) ∈ n1×n2 that is itself a vertex, i excluded. It joins from the
// sparse side: per w1, the shorter of w1's run and n2 (both in K2 entity
// order) is walked and the longer binary-searched, so a hub's long
// neighbourhood costs a search per retained pair, not a probe per value.
//
//remp:hotpath
func (j *joiner) join(edges []edge, i int32, n1, n2 []kb.EntityID) []edge {
	last := kb.EntityID(len(j.runs) - 1)
	for _, w1 := range n1 {
		if w1 >= last {
			continue // no vertex has this K1 entity
		}
		lo, hi := j.runs[w1], j.runs[w1+1]
		run, keys := j.g.byPair[lo:hi], j.u2[lo:hi]
		if len(run) <= len(n2) {
			for k, u := range keys {
				if _, ok := slices.BinarySearch(n2, u); ok && run[k] != i {
					edges = append(edges, edge{row: i, nbr: run[k]})
				}
			}
			continue
		}
		for _, w2 := range n2 {
			if k, ok := slices.BinarySearch(keys, w2); ok && run[k] != i {
				edges = append(edges, edge{row: i, nbr: run[k]})
			}
		}
	}
	return edges
}

// ranks returns every vertex's position in pair order: the rows' sort key.
func (g *Graph) ranks() []int32 {
	rank := make([]int32, len(g.byPair))
	for r, i := range g.byPair {
		rank[i] = int32(r)
	}
	return rank
}

// FromRows rebuilds a graph from the parts the rest derives from — the
// vertex list, the label table and the out-rows (vertex i's edges are slots
// outStart[i]..outStart[i+1] of outTo and outLabel) — as another process's
// Build or Subgraph produced them. The in-rows and the label groups are
// rebuilt by the code Build finishes with, so the result equals the
// original. The rows arrive from outside the program: duplicate vertices,
// labels out of order, offsets that do not tile the rows, an index out of
// range, a self-loop or a row not in row order are errors. It takes
// ownership of the slices.
func FromRows(vertices []pair.Pair, labels []RelPair, outStart, outTo, outLabel []int32) (*Graph, error) {
	n := len(vertices)
	g, err := newGraph(vertices)
	if err != nil {
		return nil, err
	}
	for l := 1; l < len(labels); l++ {
		if !labels[l-1].Less(labels[l]) {
			return nil, fmt.Errorf("ergraph: label %d is not above label %d in label order", l, l-1)
		}
	}
	if len(outStart) != n+1 || outStart[0] != 0 || int(outStart[n]) != len(outTo) || len(outTo) != len(outLabel) {
		return nil, fmt.Errorf("ergraph: row offsets do not tile %d edges over %d vertices", len(outTo), n)
	}
	rank := g.ranks()
	edges := make([]edge, len(outTo))
	for i := 0; i < n; i++ {
		lo, hi := outStart[i], outStart[i+1]
		if lo > hi || int(hi) > len(outTo) {
			return nil, fmt.Errorf("ergraph: row %d spans slots %d to %d of %d", i, lo, hi, len(outTo))
		}
		for k := lo; k < hi; k++ {
			j, l := outTo[k], outLabel[k]
			if j < 0 || int(j) >= n || int(j) == i || l < 0 || int(l) >= len(labels) {
				return nil, fmt.Errorf("ergraph: row %d has an edge to vertex %d of %d under label %d of %d", i, j, n, l, len(labels))
			}
			if k > lo && cmp.Or(cmp.Compare(rank[outTo[k-1]], rank[j]), cmp.Compare(outLabel[k-1], l)) >= 0 {
				return nil, fmt.Errorf("ergraph: row %d is not sorted by target pair, then label, at slot %d", i, k-lo)
			}
			edges[k] = edge{row: j, nbr: int32(i), label: l}
		}
	}
	g.labels = labels
	g.outStart, g.outTo, g.outLabel = outStart, outTo, outLabel
	g.inStart, g.inFrom, g.inLabel = g.rows([][]edge{edges}, rank, false)
	g.buildLabelGroups()
	return g, nil
}

// newGraph starts a graph over a copy of the vertex list and sorts it once
// into byPair. The sort puts a repeated pair beside itself: that is the
// distinctness check behind Build and FromRows (Cut reads its pair order
// off the parent's and checks its count instead).
func newGraph(vertices []pair.Pair) (*Graph, error) {
	g := &Graph{vertices: slices.Clone(vertices), byPair: make([]int32, len(vertices))}
	for i := range g.byPair {
		g.byPair[i] = int32(i)
	}
	slices.SortFunc(g.byPair, func(a, b int32) int { return g.vertices[a].Compare(g.vertices[b]) })
	for r := 1; r < len(g.byPair); r++ {
		if v := g.vertices[g.byPair[r]]; v == g.vertices[g.byPair[r-1]] {
			return nil, fmt.Errorf("ergraph: vertex %v is listed twice, but the vertices must be distinct", v)
		}
	}
	return g, nil
}

// mustGraph is newGraph for a vertex list the program made itself, where a
// repeated pair is a bug.
func mustGraph(vertices []pair.Pair) *Graph {
	g, err := newGraph(vertices)
	if err != nil {
		panic(err)
	}
	return g
}

// rows lays the edges, collected in chunks, out as one direction's three
// flat rows, in row order: a counting sort by row, then each row's keys
// rank<<32 | label — unique within a row — sorted as integers, and each
// rank mapped back to its vertex through byPair, the rank → index inverse.
// reversed lays each edge into its nbr's row instead (the in-rows of
// collected out-edges). The chunking never changes the result.
func (g *Graph) rows(chunks [][]edge, rank []int32, reversed bool) (start, nbr, label []int32) {
	n := len(g.vertices)
	start = make([]int32, n+1)
	total := 0
	ends := func(e edge) (row, other int32) {
		if reversed {
			return e.nbr, e.row
		}
		return e.row, e.nbr
	}
	for _, c := range chunks {
		total += len(c)
		for _, e := range c {
			row, _ := ends(e)
			start[row+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	// start[row] is row's fill cursor while the keys are placed; each ends
	// at the next row's start, so shifting them back restores the offsets.
	keys := make([]int64, total)
	for _, c := range chunks {
		for _, e := range c {
			row, other := ends(e)
			keys[start[row]] = int64(rank[other])<<32 | int64(e.label)
			start[row]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	nbr = make([]int32, total)
	label = make([]int32, total)
	for i := 0; i < n; i++ {
		row := keys[start[i]:start[i+1]]
		slices.Sort(row)
		for k, key := range row {
			nbr[int(start[i])+k], label[int(start[i])+k] = g.byPair[key>>32], int32(key)
		}
	}
	return start, nbr, label
}

// buildLabelGroups derives the per-vertex label groups from the out-rows.
// Within a vertex the groups follow the label order and each group keeps
// the row order (ascending To): exactly the sequences neighbor propagation
// consumes, so no consumer regroups or re-sorts per build.
func (g *Graph) buildLabelGroups() {
	n := len(g.vertices)
	g.grpStart = make([]int32, n+1)
	g.grpEdge = make([]int32, 0, len(g.outTo))
	// keys packs (label index, edge position) so one integer sort groups a
	// vertex's edges by label while keeping the row order inside a group.
	var keys []int64
	for i := 0; i < n; i++ {
		keys = keys[:0]
		for k, l := range g.OutLabelsAt(i) {
			keys = append(keys, int64(l)<<32|int64(k))
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

// Subgraph returns the induced subgraph on the given vertices (a subset
// of g's vertex set, in any order): Cut over their indexes, one IndexOf per
// vertex. A pair listed twice panics as it does in Build, and so does a
// pair that is not a vertex of g.
func (g *Graph) Subgraph(vertices []pair.Pair) *Graph {
	members := make([]int32, len(vertices))
	for i, v := range vertices {
		gi := g.IndexOf(v)
		if gi < 0 {
			panic(fmt.Errorf("ergraph: %v is not a vertex of the graph", v))
		}
		members[i] = int32(gi)
	}
	return g.Cut(members)
}

// Cut returns the induced subgraph on the vertices with the given indexes
// (distinct, in any order): subgraph vertex i is g's vertex members[i].
// Edges with either endpoint outside the set are dropped, and surviving
// edges keep the parent's row order, so the result equals Build over the
// same vertex list. It is pure array arithmetic over the parent's rows:
// the subgraph's pair order is read off g's byPair and its label groups
// off g's, filtered, so nothing is sorted or searched, and nothing is done
// per edge but a lookup. Its arrays are sized for every edge of the
// members, exactly what a set closed under edges keeps. Extracting a
// connected component this way is loss-free — every incident edge
// survives — so a per-shard pipeline built on a component subgraph sees
// exactly the evidence the monolithic graph would. An index listed twice
// panics, naming its pair.
func (g *Graph) Cut(members []int32) *Graph {
	n := len(members)
	sub := &Graph{vertices: make([]pair.Pair, n), byPair: make([]int32, 0, n)}
	// slot[gi] is one past the subgraph index of parent vertex gi, 0 for a
	// vertex the subgraph does not have.
	slot := make([]int32, len(g.vertices))
	outCap, inCap, grpCap := 0, 0, 0
	for i, gi := range members {
		sub.vertices[i] = g.vertices[gi]
		slot[gi] = int32(i) + 1
		outCap += int(g.outStart[gi+1] - g.outStart[gi])
		inCap += int(g.inStart[gi+1] - g.inStart[gi])
		grpCap += int(g.grpStart[gi+1] - g.grpStart[gi])
	}
	for _, gi := range g.byPair {
		if k := slot[gi]; k > 0 {
			sub.byPair = append(sub.byPair, k-1)
		}
	}
	if len(sub.byPair) != n {
		panic(g.repeated(members))
	}
	used := make([]bool, len(g.labels))
	// keep appends the surviving edges of parent slots lo..hi-1 to one
	// direction's rows, and pos[k-lo] the position slot k takes in its
	// subgraph row, -1 when it is dropped.
	var pos []int32
	keep := func(lo, hi int32, nbr, label []int32, subNbr, subLabel []int32) ([]int32, []int32) {
		pos = pos[:0]
		for k := lo; k < hi; k++ {
			nj := slot[nbr[k]]
			if nj == 0 {
				pos = append(pos, -1)
				continue
			}
			pos = append(pos, int32(len(subNbr)))
			subNbr = append(subNbr, nj-1)
			subLabel = append(subLabel, label[k])
			used[label[k]] = true
		}
		return subNbr, subLabel
	}
	sub.outStart, sub.outTo, sub.outLabel = make([]int32, n+1), makeRow(outCap), makeRow(outCap)
	sub.inStart, sub.inFrom, sub.inLabel = make([]int32, n+1), makeRow(inCap), makeRow(inCap)
	sub.grpStart, sub.grpLabel, sub.grpEnd, sub.grpEdge = make([]int32, n+1), makeRow(grpCap), makeRow(grpCap), make([]int32, 0, outCap)
	for i, gi := range members {
		sub.inFrom, sub.inLabel = keep(g.inStart[gi], g.inStart[gi+1], g.inFrom, g.inLabel, sub.inFrom, sub.inLabel)
		sub.inStart[i+1] = int32(len(sub.inFrom))
		sub.outTo, sub.outLabel = keep(g.outStart[gi], g.outStart[gi+1], g.outTo, g.outLabel, sub.outTo, sub.outLabel)
		sub.outStart[i+1] = int32(len(sub.outTo))
		// Vertex i's groups are gi's, each keeping its surviving edges
		// (renumbered to their subgraph row positions): the same label
		// order and row order buildLabelGroups would produce.
		for k := g.grpStart[gi]; k < g.grpStart[gi+1]; k++ {
			from := len(sub.grpEdge)
			for _, e := range g.GroupEdges(int(k)) {
				if at := pos[e]; at >= 0 {
					sub.grpEdge = append(sub.grpEdge, at-sub.outStart[i])
				}
			}
			if len(sub.grpEdge) > from {
				sub.grpLabel = append(sub.grpLabel, g.grpLabel[k])
				sub.grpEnd = append(sub.grpEnd, int32(len(sub.grpEdge)))
			}
		}
		sub.grpStart[i+1] = int32(len(sub.grpLabel))
	}
	// The surviving labels keep the parent's (sorted) order; relabel maps a
	// parent label index to its index among them.
	relabel := make([]int32, len(g.labels))
	for l, ok := range used {
		if ok {
			relabel[l] = int32(len(sub.labels))
			sub.labels = append(sub.labels, g.labels[l])
		}
	}
	for _, row := range [][]int32{sub.outLabel, sub.inLabel, sub.grpLabel} {
		for k := range row {
			row[k] = relabel[row[k]]
		}
	}
	return sub
}

// makeRow returns an empty row with room for n entries, nil for none: the
// row an append-built one would be.
func makeRow(n int) []int32 {
	if n == 0 {
		return nil
	}
	return make([]int32, 0, n)
}

// repeated names the first vertex members lists twice.
func (g *Graph) repeated(members []int32) error {
	seen := make([]bool, len(g.vertices))
	for _, gi := range members {
		if seen[gi] {
			return fmt.Errorf("ergraph: vertex %v is listed twice, but the vertices must be distinct", g.vertices[gi])
		}
		seen[gi] = true
	}
	return nil
}

// Vertices returns the vertex list (do not modify).
func (g *Graph) Vertices() []pair.Pair { return g.vertices }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// IndexOf returns the dense index of vertex p, or -1: binary searches over
// the vertices in pair order, O(log n) — p.U1's run, then p.U2 within it.
func (g *Graph) IndexOf(p pair.Pair) int { return g.find(g.runOf(p.U1), p.U2) }

// runOf returns the vertices whose K1 entity is u: a run of byPair, in K2
// entity order, found by binary search. IndexOf alone uses it: Build,
// which looks a run up per successor, reads its runs off a dense table
// instead (joiner).
func (g *Graph) runOf(u kb.EntityID) []int32 {
	lo, _ := slices.BinarySearchFunc(g.byPair, u, func(i int32, u kb.EntityID) int { return cmp.Compare(g.vertices[i].U1, u) })
	hi := lo
	for hi < len(g.byPair) && g.vertices[g.byPair[hi]].U1 == u {
		hi++
	}
	return g.byPair[lo:hi]
}

// find returns the vertex of run (a runOf) whose K2 entity is u, or -1.
func (g *Graph) find(run []int32, u kb.EntityID) int {
	r, ok := slices.BinarySearchFunc(run, u, func(i int32, u kb.EntityID) int { return cmp.Compare(g.vertices[i].U2, u) })
	if !ok {
		return -1
	}
	return int(run[r])
}

// OutIndexesAt returns vertex i's out-row: the dense indexes of the vertices
// its out-edges end at (do not modify).
func (g *Graph) OutIndexesAt(i int) []int32 { return g.outTo[g.outStart[i]:g.outStart[i+1]] }

// OutLabelsAt returns the label indexes (into Labels) of vertex i's
// out-edges, parallel to OutIndexesAt (do not modify).
func (g *Graph) OutLabelsAt(i int) []int32 { return g.outLabel[g.outStart[i]:g.outStart[i+1]] }

// InIndexesAt returns vertex i's in-row: the dense indexes of the vertices
// its in-edges start at (do not modify).
func (g *Graph) InIndexesAt(i int) []int32 { return g.inFrom[g.inStart[i]:g.inStart[i+1]] }

// InLabelsAt returns the label indexes of vertex i's in-edges, parallel to
// InIndexesAt (do not modify).
func (g *Graph) InLabelsAt(i int) []int32 { return g.inLabel[g.inStart[i]:g.inStart[i+1]] }

// GroupsAt returns the half-open range of label-group ids of vertex i, in
// label order. Group ids are dense across the graph, ascending in vertex
// index.
func (g *Graph) GroupsAt(i int) (lo, hi int) {
	return int(g.grpStart[i]), int(g.grpStart[i+1])
}

// GroupLabels returns every group's label index (into Labels), addressed
// by group id (do not modify).
func (g *Graph) GroupLabels() []int32 { return g.grpLabel }

// GroupEdges returns group k's edges as positions into its vertex's
// out-row, ascending (do not modify).
func (g *Graph) GroupEdges(k int) []int32 {
	lo := int32(0)
	if k > 0 {
		lo = g.grpEnd[k-1]
	}
	return g.grpEdge[lo:g.grpEnd[k]]
}

// Isolated returns the vertices with no incident edges: the isolated
// entity pairs that propagation can never reach (§VII-B).
func (g *Graph) Isolated() []pair.Pair {
	var out []pair.Pair
	for i, v := range g.vertices {
		if g.outStart[i] == g.outStart[i+1] && g.inStart[i] == g.inStart[i+1] {
			out = append(out, v)
		}
	}
	return out
}

// Labels returns the distinct edge labels present in the graph, sorted by
// RelPair.Less (do not modify). A label's position is its label index.
func (g *Graph) Labels() []RelPair { return g.labels }
