// Package partition splits a candidate-pair graph into independent shards
// for the sharded resolution pipeline. Relational match propagation is
// bounded to ζ-balls around confirmed matches, so evidence never crosses a
// connected component of the relational edge graph: a partition along
// those components — union-find over the candidate pairs plus their
// relational edges — yields shards whose propagation engines, candidate
// gathering and question selection can run concurrently without
// exchanging any evidence, which is how collective ER scales past a single
// monolithic graph (Rastogi et al., "Large-Scale Collective Entity
// Matching"). The pipeline hands over only the pairs that have a
// relational edge: a pair without one exchanges evidence with nothing,
// belongs to no neighbourhood and is kept out of every shard by the caller
// (here it would be a component of its own). The linking relation is
// caller-defined (a neighbors closure), so callers can also fold in extra
// must-link constraints; the 1:1 entity constraint is deliberately NOT a
// partition edge — competitor chains would glue realistic candidate graphs
// into one giant component — and is instead routed across shards by the
// loop's serial answer application.
//
// Components are binned into shards by descending size with
// weight-balanced contiguous fill: the largest components (the ones
// benefit-greedy question selection works through first) land in the
// lowest-numbered shards together, so early loops touch few shards and
// settled shards can be frozen, while shard weights stay within one
// component of the ideal n/S balance for parallel execution. Component
// identity, order and therefore shard IDs are canonical: they depend only
// on the vertex set, never on input order.
package partition

import (
	"sort"

	"repro/internal/pair"
)

// Partition is a deterministic assignment of candidate pairs to shards,
// held as the shards' vertex lists alone: Split works by input index
// throughout, and nothing is keyed by pair.
type Partition struct {
	shards     [][]pair.Pair
	components int
}

// Split partitions the candidate-pair graph into at most maxShards shards
// of connected components. vertices is the graph's vertex list; neighbors
// returns, for a vertex index, the indexes it is linked to (out-neighbors
// suffice — the union is symmetric), in either index width so a graph's
// dense []int32 rows can be handed over as they are. Each shard's vertex
// slice preserves the relative order of the input, so a pair-sorted vertex
// list yields pair-sorted shards.
func Split[I int | int32](vertices []pair.Pair, neighbors func(i int) []I, maxShards int) *Partition {
	n := len(vertices)
	uf := newUnionFind(n)

	// Relational edges: propagation evidence flows along them.
	if neighbors != nil {
		for i := 0; i < n; i++ {
			for _, j := range neighbors(i) {
				uf.union(i, int(j))
			}
		}
	}

	// Gather components and canonicalize: a component is identified by its
	// minimal pair, and components order by (size desc, minimal pair asc).
	// Both are properties of the vertex set alone, so shard IDs are stable
	// under any permutation of the input. A component is named by its
	// union-find root r, and at[r] is its position in comps (-1 until met),
	// later its shard.
	type component struct {
		root, size int
		min        pair.Pair
	}
	var comps []component
	at := make([]int, n)
	for i := range at {
		at[i] = -1
	}
	for i, v := range vertices {
		r := uf.find(i)
		if at[r] < 0 {
			at[r] = len(comps)
			comps = append(comps, component{root: r, min: v})
		}
		c := &comps[at[r]]
		c.size++
		if v.Less(c.min) {
			c.min = v
		}
	}
	sort.Slice(comps, func(a, b int) bool {
		if comps[a].size != comps[b].size {
			return comps[a].size > comps[b].size
		}
		return comps[a].min.Less(comps[b].min)
	})

	shards := maxShards
	if shards < 1 {
		shards = 1
	}
	if shards > len(comps) {
		shards = len(comps)
	}
	if shards == 0 {
		shards = 1 // empty graph: one empty shard
	}

	p := &Partition{shards: make([][]pair.Pair, shards), components: len(comps)}
	// Weight-balanced contiguous fill: walk components largest-first and
	// advance to the next shard once the current one reaches the remaining
	// ideal weight. Contiguity keeps similar-sized components — the ones
	// selection resolves around the same time — in the same shard.
	remaining := n
	shard := 0
	filled := 0
	for ci, c := range comps {
		if shard < shards-1 && filled > 0 {
			target := remaining / (shards - shard)
			if filled+c.size/2 >= target && len(comps)-ci >= shards-shard-1 {
				remaining -= filled
				shard++
				filled = 0
			}
		}
		at[c.root] = shard
		filled += c.size
	}
	// Materialize shard vertex lists in input order.
	for i, v := range vertices {
		s := at[uf.find(i)]
		p.shards[s] = append(p.shards[s], v)
	}
	return p
}

// NumShards returns the number of shards actually produced (≤ the
// requested maximum, bounded by the component count).
func (p *Partition) NumShards() int { return len(p.shards) }

// NumComponents returns the number of connected components found.
func (p *Partition) NumComponents() int { return p.components }

// Shard returns shard s's vertices in input order (do not modify).
func (p *Partition) Shard(s int) []pair.Pair { return p.shards[s] }

// Sizes returns the vertex count per shard.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.shards))
	for s, vs := range p.shards {
		out[s] = len(vs)
	}
	return out
}

// unionFind is a standard weighted quick-union with path halving.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
