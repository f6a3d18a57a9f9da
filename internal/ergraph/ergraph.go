// Package ergraph implements the ER graph of Definition 2: a directed,
// edge-labeled multigraph whose vertices are candidate entity pairs and
// whose edges connect (u1,u2) → (u1′,u2′) with label (r1,r2) exactly when
// (u1,r1,u1′) ∈ T1 and (u2,r2,u2′) ∈ T2. The package also exposes the
// connected components and the isolated pairs that the graph cannot reach
// (§VII-B).
package ergraph

import (
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
// is the single comparator shared by Labels, the label groups and the edge sort,
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

// Edge is a labeled directed edge between two vertices (entity pairs).
type Edge struct {
	From  pair.Pair
	To    pair.Pair
	Label RelPair
}

// Graph is an ER graph over a fixed vertex set.
type Graph struct {
	vertices []pair.Pair
	index    map[pair.Pair]int
	// out[i] lists edges leaving vertex i; in[i] lists edges entering it.
	out [][]Edge
	in  [][]Edge
	// Dense topology, one flat array per direction: vertex i's out-edges
	// out[i][k] end at vertex outTo[outStart[i]+k], and its in-edges
	// in[i][k] start at inFrom[inStart[i]+k]. Edge consumers (BuildProb,
	// Subgraph, the partitioner) walk these integer rows instead of hashing
	// pair.Pair per edge.
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

// Build constructs the ER graph on the given vertex set (the retained
// match set Mrd). For every vertex (u1,u2) and every relationship pair
// (r1,r2) with u1 having r1-successors and u2 having r2-successors, an
// edge is added to each successor pair that is also a vertex.
func Build(k1, k2 *kb.KB, vertices []pair.Pair) *Graph {
	g := &Graph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]Edge, len(vertices)),
		in:       make([][]Edge, len(vertices)),
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
func (g *Graph) buildDenseIndexes() {
	n := len(g.vertices)
	edges := g.NumEdges()
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
func (g *Graph) buildLabelGroups() {
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
func (g *Graph) addEdges(i int, v pair.Pair, n1, n2 []kb.EntityID, label RelPair) {
	for _, w1 := range n1 {
		for _, w2 := range n2 {
			to := pair.Pair{U1: w1, U2: w2}
			j, ok := g.index[to]
			if !ok || j == i {
				continue
			}
			e := Edge{From: v, To: to, Label: label}
			g.out[i] = append(g.out[i], e)
			g.in[j] = append(g.in[j], e)
		}
	}
}

func sortEdges(es []Edge) {
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

// Subgraph returns the induced subgraph on the given vertices (a subset
// of g's vertex set, in any order): edges with either endpoint outside the
// subset are dropped, and surviving edge slices keep the parent's sorted
// order. Extracting a connected component this way is loss-free — every
// incident edge survives — so a per-shard pipeline built on a component
// subgraph sees exactly the evidence the monolithic graph would.
func (g *Graph) Subgraph(vertices []pair.Pair) *Graph {
	sub := &Graph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]Edge, len(vertices)),
		in:       make([][]Edge, len(vertices)),
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
			outIdx, inIdx := g.OutIndexesAt(gi), g.InIndexesAt(gi)
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

// Vertices returns the vertex list (do not modify).
func (g *Graph) Vertices() []pair.Pair { return g.vertices }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// IndexOf returns the dense index of vertex p, or -1.
func (g *Graph) IndexOf(p pair.Pair) int {
	if i, ok := g.index[p]; ok {
		return i
	}
	return -1
}

// Out returns the edges leaving p (do not modify).
func (g *Graph) Out(p pair.Pair) []Edge {
	if i, ok := g.index[p]; ok {
		return g.out[i]
	}
	return nil
}

// In returns the edges entering p (do not modify).
func (g *Graph) In(p pair.Pair) []Edge {
	if i, ok := g.index[p]; ok {
		return g.in[i]
	}
	return nil
}

// OutAt returns the edges leaving the vertex with dense index i (do not
// modify).
func (g *Graph) OutAt(i int) []Edge { return g.out[i] }

// InAt returns the edges entering the vertex with dense index i (do not
// modify).
func (g *Graph) InAt(i int) []Edge { return g.in[i] }

// OutIndexesAt returns the dense to-indexes of OutAt(i), parallel slice
// (do not modify).
func (g *Graph) OutIndexesAt(i int) []int32 { return g.outTo[g.outStart[i]:g.outStart[i+1]] }

// InIndexesAt returns the dense from-indexes of InAt(i), parallel slice
// (do not modify).
func (g *Graph) InIndexesAt(i int) []int32 { return g.inFrom[g.inStart[i]:g.inStart[i+1]] }

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
// OutAt / OutIndexesAt rows, ascending (do not modify).
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
		if len(g.out[i]) == 0 && len(g.in[i]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Labels returns the distinct edge labels present in the graph, sorted by
// RelPair.Less (do not modify). A label's position is its label index.
func (g *Graph) Labels() []RelPair { return g.labels }
