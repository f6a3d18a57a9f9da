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
	"sort"

	"repro/internal/kb"
	"repro/internal/pair"
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
// and stored one way — three parallel flat rows per direction. Vertex i's
// out-edges are slots outStart[i]..outStart[i+1] of outTo (target vertex
// index) and outLabel (label index); inStart/inFrom/inLabel hold the same
// edges by target. A row is sorted by its neighbours' pair order (pair.Less,
// whatever the vertex list's order), then by label index: the CSR slot order
// of every ProbGraph, the input order of the row kernel's marginalization
// and PARIS's product order, hence part of the byte-identity contract.
type Graph struct {
	vertices []pair.Pair
	index    map[pair.Pair]int

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

// Build constructs the ER graph on the given vertex set (the retained
// match set Mrd). For every vertex (u1,u2) and every relationship pair
// (r1,r2) with u1 having r1-successors and u2 having r2-successors, an
// edge is added to each successor pair that is also a vertex.
func Build(k1, k2 *kb.KB, vertices []pair.Pair) *Graph {
	g := newGraph(vertices)
	var edges []edge
	// Until the labels are sorted an edge carries its label's
	// first-appearance id: the label's position in g.labels as collected.
	seenID := map[RelPair]int32{}
	// add links vertex i to every successor pair (w1, w2) ∈ n1×n2 that is
	// itself a vertex, under the given label.
	add := func(i int, n1, n2 []kb.EntityID, label RelPair) {
		for _, w1 := range n1 {
			for _, w2 := range n2 {
				j, ok := g.index[pair.Pair{U1: w1, U2: w2}]
				if !ok || j == i {
					continue
				}
				id, ok := seenID[label]
				if !ok {
					id = int32(len(g.labels))
					seenID[label] = id
					g.labels = append(g.labels, label)
				}
				edges = append(edges, edge{row: int32(i), nbr: int32(j), label: id})
			}
		}
	}
	for i, v := range g.vertices {
		for _, r1 := range k1.OutRels(v.U1) {
			for _, r2 := range k2.OutRels(v.U2) {
				add(i, k1.Out(v.U1, r1), k2.Out(v.U2, r2), RelPair{R1: r1, R2: r2})
			}
		}
		for _, r1 := range k1.InRels(v.U1) {
			for _, r2 := range k2.InRels(v.U2) {
				add(i, k1.In(v.U1, r1), k2.In(v.U2, r2), RelPair{R1: r1, R2: r2, Inverse: true})
			}
		}
	}
	sort.Slice(g.labels, func(a, b int) bool { return g.labels[a].Less(g.labels[b]) })
	sorted := make([]int32, len(g.labels)) // first-appearance id → label index
	for i, l := range g.labels {
		sorted[seenID[l]] = int32(i)
	}
	for k := range edges {
		edges[k].label = sorted[edges[k].label]
	}
	rank := pairRanks(g.vertices)
	g.outStart, g.outTo, g.outLabel = rows(len(g.vertices), edges, rank)
	for k, e := range edges {
		edges[k] = edge{row: e.nbr, nbr: e.row, label: e.label}
	}
	g.inStart, g.inFrom, g.inLabel = rows(len(g.vertices), edges, rank)
	g.buildLabelGroups()
	return g
}

// pairRanks returns every vertex's position in pair order: the rows' sort
// key.
func pairRanks(vertices []pair.Pair) []int32 {
	order := make([]int32, len(vertices))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return vertices[order[a]].Less(vertices[order[b]]) })
	rank := make([]int32, len(order))
	for r, i := range order {
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
	g := newGraph(vertices)
	if len(g.index) != n {
		return nil, fmt.Errorf("ergraph: %d vertices, %d distinct", n, len(g.index))
	}
	for l := 1; l < len(labels); l++ {
		if !labels[l-1].Less(labels[l]) {
			return nil, fmt.Errorf("ergraph: label %d is not above label %d in label order", l, l-1)
		}
	}
	if len(outStart) != n+1 || outStart[0] != 0 || int(outStart[n]) != len(outTo) || len(outTo) != len(outLabel) {
		return nil, fmt.Errorf("ergraph: row offsets do not tile %d edges over %d vertices", len(outTo), n)
	}
	rank := pairRanks(g.vertices)
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
	g.inStart, g.inFrom, g.inLabel = rows(n, edges, rank)
	g.buildLabelGroups()
	return g, nil
}

func newGraph(vertices []pair.Pair) *Graph {
	g := &Graph{vertices: slices.Clone(vertices), index: make(map[pair.Pair]int, len(vertices))}
	for i, v := range g.vertices {
		g.index[v] = i
	}
	return g
}

// rows sorts the edges into row order and lays them out as one direction's
// three flat rows over n vertices.
func rows(n int, edges []edge, rank []int32) (start, nbr, label []int32) {
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(rank[a.nbr], rank[b.nbr]), cmp.Compare(a.label, b.label))
	})
	start = make([]int32, n+1)
	nbr = make([]int32, len(edges))
	label = make([]int32, len(edges))
	for k, e := range edges {
		start[e.row+1]++
		nbr[k], label[k] = e.nbr, e.label
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
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
// of g's vertex set, in any order): edges with either endpoint outside the
// subset are dropped, and surviving edges keep the parent's row order, so
// the result equals Build over the same vertex list. It is pure array
// arithmetic over the parent's rows: one hash per subgraph vertex, none per
// edge. Extracting a connected component this way is loss-free — every
// incident edge survives — so a per-shard pipeline built on a component
// subgraph sees exactly the evidence the monolithic graph would.
func (g *Graph) Subgraph(vertices []pair.Pair) *Graph {
	sub := newGraph(vertices)
	// parent[i] is the parent index of subgraph vertex i and remap its
	// inverse; -1 marks a vertex the other graph does not have.
	parent := make([]int32, len(sub.vertices))
	remap := make([]int32, len(g.vertices))
	for gi := range remap {
		remap[gi] = -1
	}
	for i, v := range sub.vertices {
		parent[i] = int32(g.IndexOf(v))
		if parent[i] >= 0 {
			remap[parent[i]] = int32(i)
		}
	}
	used := make([]bool, len(g.labels))
	filter := func(start, nbr, label []int32) (subStart, subNbr, subLabel []int32) {
		subStart = make([]int32, len(parent)+1)
		for i, gi := range parent {
			if gi >= 0 {
				for k := start[gi]; k < start[gi+1]; k++ {
					if nj := remap[nbr[k]]; nj >= 0 {
						subNbr = append(subNbr, nj)
						subLabel = append(subLabel, label[k])
						used[label[k]] = true
					}
				}
			}
			subStart[i+1] = int32(len(subNbr))
		}
		return subStart, slices.Clip(subNbr), slices.Clip(subLabel)
	}
	sub.outStart, sub.outTo, sub.outLabel = filter(g.outStart, g.outTo, g.outLabel)
	sub.inStart, sub.inFrom, sub.inLabel = filter(g.inStart, g.inFrom, g.inLabel)
	// The surviving labels keep the parent's (sorted) order; relabel maps a
	// parent label index to its index among them.
	relabel := make([]int32, len(g.labels))
	for l, ok := range used {
		if ok {
			relabel[l] = int32(len(sub.labels))
			sub.labels = append(sub.labels, g.labels[l])
		}
	}
	for k := range sub.outLabel {
		sub.outLabel[k] = relabel[sub.outLabel[k]]
		sub.inLabel[k] = relabel[sub.inLabel[k]]
	}
	sub.buildLabelGroups()
	return sub
}

// Vertices returns the vertex list (do not modify).
func (g *Graph) Vertices() []pair.Pair { return g.vertices }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// IndexOf returns the dense index of vertex p, or -1.
func (g *Graph) IndexOf(p pair.Pair) int {
	if i, ok := g.index[p]; ok {
		return i
	}
	return -1
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
