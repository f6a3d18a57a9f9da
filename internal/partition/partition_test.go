package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func pr(u1, u2 int) pair.Pair {
	return pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
}

// adjacency builds a neighbors func from an edge list over vertex indexes.
func adjacency(n int, edges [][2]int) func(i int) []int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return func(i int) []int { return adj[i] }
}

func TestSingletonComponents(t *testing.T) {
	// Five isolated pairs, no relational edges, no shared entities: five
	// singleton components spread across the requested shards, none lost.
	verts := []pair.Pair{pr(1, 11), pr(2, 12), pr(3, 13), pr(4, 14), pr(5, 15)}
	p := Split(verts, adjacency(len(verts), nil), 3)
	if p.NumComponents() != 5 {
		t.Fatalf("NumComponents = %d, want 5", p.NumComponents())
	}
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", p.NumShards())
	}
	total := 0
	for s := 0; s < p.NumShards(); s++ {
		total += len(p.Shard(s))
		if len(p.Shard(s)) == 0 {
			t.Errorf("shard %d is empty", s)
		}
	}
	if total != len(verts) {
		t.Fatalf("shards hold %d vertices, want %d", total, len(verts))
	}
	for _, v := range verts {
		if p.ShardOf(v) < 0 {
			t.Errorf("vertex %v unassigned", v)
		}
	}
}

func TestOneSidedComponent(t *testing.T) {
	// A component whose pairs all compete for one K1 entity — (1,11),
	// (1,12), (1,13) — with relational edges among them (degenerate blocks
	// are common under heavy label ambiguity). The component must stay
	// whole and the independent pair must not be dragged along.
	verts := []pair.Pair{pr(1, 11), pr(1, 12), pr(1, 13), pr(2, 21)}
	edges := [][2]int{{0, 1}, {1, 2}}
	p := Split(verts, adjacency(len(verts), edges), 2)
	if p.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2", p.NumComponents())
	}
	s := p.ShardOf(pr(1, 11))
	if p.ShardOf(pr(1, 12)) != s || p.ShardOf(pr(1, 13)) != s {
		t.Errorf("one-sided component split across shards: %d/%d/%d",
			s, p.ShardOf(pr(1, 12)), p.ShardOf(pr(1, 13)))
	}
	if p.NumShards() == 2 && p.ShardOf(pr(2, 21)) == s {
		t.Errorf("independent pair colocated despite a free shard")
	}
}

func TestSeedBridgesComponents(t *testing.T) {
	// Two chains {(1,11)-(2,12)} and {(5,15)-(6,16)} would be independent
	// components, but a seed-match vertex (1,15) carries relational edges
	// into both (its K1 entity relates into the first chain's K1 side,
	// its K2 entity into the second chain's K2 side): propagation from the
	// seed reaches both chains, so all five must land in one shard.
	verts := []pair.Pair{pr(1, 11), pr(2, 12), pr(5, 15), pr(6, 16), pr(1, 15)}
	edges := [][2]int{{0, 1}, {2, 3}, {4, 0}, {4, 2}}
	p := Split(verts, adjacency(len(verts), edges), 4)
	if p.NumComponents() != 1 {
		t.Fatalf("NumComponents = %d, want 1 (seed bridge must merge)", p.NumComponents())
	}
	s := p.ShardOf(verts[0])
	for _, v := range verts[1:] {
		if p.ShardOf(v) != s {
			t.Errorf("bridged component split: %v in shard %d, want %d", v, p.ShardOf(v), s)
		}
	}
	// Without the bridge the components stay apart.
	p2 := Split(verts[:4], adjacency(4, [][2]int{{0, 1}, {2, 3}}), 4)
	if p2.NumComponents() != 2 {
		t.Fatalf("without bridge: NumComponents = %d, want 2", p2.NumComponents())
	}
}

func TestShardIDsDeterministicUnderPermutation(t *testing.T) {
	// A mix of chains, entity blocks and singletons; shard IDs must be a
	// function of the vertex set only, not of input order.
	var verts []pair.Pair
	var edges [][2]int
	id := 1
	for c := 0; c < 7; c++ {
		size := 1 + c
		first := len(verts)
		for k := 0; k < size; k++ {
			verts = append(verts, pr(id, 1000+id))
			id++
			if k > 0 {
				edges = append(edges, [2]int{first + k - 1, first + k})
			}
		}
	}
	ref := Split(verts, adjacency(len(verts), edges), 3)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(verts))
		shuffled := make([]pair.Pair, len(verts))
		where := make(map[pair.Pair]int, len(verts))
		for i, j := range perm {
			shuffled[j] = verts[i]
		}
		for i, v := range shuffled {
			where[v] = i
		}
		// Rebuild the edge list under the permuted indexing.
		permEdges := make([][2]int, len(edges))
		for i, e := range edges {
			permEdges[i] = [2]int{where[verts[e[0]]], where[verts[e[1]]]}
		}
		got := Split(shuffled, adjacency(len(shuffled), permEdges), 3)
		if got.NumShards() != ref.NumShards() || got.NumComponents() != ref.NumComponents() {
			t.Fatalf("trial %d: shape differs: %d/%d shards, %d/%d components",
				trial, got.NumShards(), ref.NumShards(), got.NumComponents(), ref.NumComponents())
		}
		for _, v := range verts {
			if got.ShardOf(v) != ref.ShardOf(v) {
				t.Fatalf("trial %d: %v assigned to shard %d, want %d",
					trial, v, got.ShardOf(v), ref.ShardOf(v))
			}
		}
	}
}

func TestBalancedFill(t *testing.T) {
	// 8 equal components over 4 shards must land 2 per shard.
	var verts []pair.Pair
	var edges [][2]int
	for c := 0; c < 8; c++ {
		first := len(verts)
		for k := 0; k < 10; k++ {
			verts = append(verts, pr(100*c+k+1, 100*c+k+1))
			if k > 0 {
				edges = append(edges, [2]int{first + k - 1, first + k})
			}
		}
	}
	p := Split(verts, adjacency(len(verts), edges), 4)
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	for s, size := range p.Sizes() {
		if size != 20 {
			t.Errorf("shard %d holds %d vertices, want 20 (sizes %v)", s, size, p.Sizes())
		}
	}
}

// ShardOf returns the shard holding pair v, or -1 for unknown pairs. The
// pipeline routes by vertex index instead; the tests ask by pair.
func (p *Partition) ShardOf(v pair.Pair) int {
	for s, vs := range p.shards {
		if slices.Contains(vs, v) {
			return s
		}
	}
	return -1
}
