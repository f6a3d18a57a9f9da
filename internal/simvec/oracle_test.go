package simvec

// The map-keyed pruner as it stood before the Pruner addressed pairs by
// position, kept verbatim (renamed) as the reference the tests below
// compare Prune and Keep against.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/pair"
)

// oraclePruner runs partial-order-based pruning (Algorithm 1).
type oraclePruner struct {
	vectors map[pair.Pair]Vector
}

// newOraclePruner precomputes (or receives) the similarity vectors of all
// candidate pairs (Algorithm 1, line 1).
func newOraclePruner(pairs []pair.Pair, vectors []Vector) *oraclePruner {
	m := make(map[pair.Pair]Vector, len(pairs))
	for i, p := range pairs {
		m[p] = vectors[i]
	}
	return &oraclePruner{vectors: m}
}

// Prune implements Algorithm 1: two one-way passes (by K1 entity, then by
// K2 entity), each pruning pairs whose min_rank within their block reaches
// k, plus every pair they dominate. It returns the retained match set Mrd
// in the original order of pairs.
func (pr *oraclePruner) Prune(pairs []pair.Pair, k int) []pair.Pair {
	if k <= 0 {
		k = 4
	}
	afterFirst := pr.pruneOneWay(pairs, k, true)
	return pr.pruneOneWay(afterFirst, k, false)
}

// pruneOneWay is PruningInOneWay from Algorithm 1. bySide1 selects whether
// blocks group pairs sharing the K1 entity (min_rank_1) or the K2 entity
// (min_rank_2). A block lists its pairs in input order, and only blocks of
// more than k pairs are ranked.
func (pr *oraclePruner) pruneOneWay(pairs []pair.Pair, k int, bySide1 bool) []pair.Pair {
	start, order := pair.GroupByEntity(pairs, bySide1)
	removed := make([]bool, len(pairs))
	for e := 0; e+1 < len(start); e++ {
		if block := order[start[e]:start[e+1]]; len(block) > k {
			pr.pruneBlock(pairs, block, k, removed)
		}
	}
	out := make([]pair.Pair, 0, len(pairs))
	for i, p := range pairs {
		if !removed[i] {
			out = append(out, p)
		}
	}
	return out
}

// pruneBlock prunes a single block B, given as positions into pairs: any
// pair with min_rank ≥ k is marked removed, and (per the paper) so is
// every pair dominated by a removed pair, since its min_rank must also be
// ≥ k.
func (pr *oraclePruner) pruneBlock(pairs []pair.Pair, block []int32, k int, removed []bool) {
	n := len(block)
	vecs := make([]Vector, n)
	for i, pos := range block {
		vecs[i] = pr.vectors[pairs[pos]]
	}
	for i := 0; i < n; i++ {
		if removed[block[i]] {
			continue
		}
		// min_rank within this block: number of vectors strictly larger.
		rank := 0
		for j := 0; j < n; j++ {
			if j != i && vecs[j].StrictlyDominates(vecs[i]) {
				rank++
				if rank >= k {
					break
				}
			}
		}
		if rank >= k {
			removed[block[i]] = true
			// Everything dominated by vecs[i] has rank ≥ rank(i) ≥ k.
			for j := 0; j < n; j++ {
				if !removed[block[j]] && vecs[i].StrictlyDominates(vecs[j]) {
					removed[block[j]] = true
				}
			}
		}
	}
}

// TestPruneMatchesOracle: on random candidate sets — dense blocks on both
// sides so both passes prune, coarse components so many vectors tie, pairs
// in shuffled order — the positional Prune and Keep return what the
// map-keyed pruner returns, for several k on one Pruner. Then the same for
// k ∈ {1, 2, 4, 8} on the shapes the distinct-vector ranking must get
// right: one block of all-distinct vectors, one block of a repeated vector
// under a few repeated dominators, and d-y's real candidate vectors.
func TestPruneMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pruned := [2]int{} // pairs the first pass and the second removed, over all cases
	for iter := 0; iter < 300; iter++ {
		nLeft, nRight, dim := 1+rng.Intn(6), 1+rng.Intn(12), 1+rng.Intn(3)
		levels := 2 + rng.Intn(4) // few levels: many equal vectors
		var pairs []pair.Pair
		var vecs []Vector
		for i := 0; i < nLeft; i++ {
			for j := 0; j < nRight; j++ {
				if rng.Intn(4) == 0 {
					continue
				}
				v := make(Vector, dim)
				for d := range v {
					v[d] = float64(rng.Intn(levels)) / float64(levels)
				}
				pairs = append(pairs, pair.Pair{U1: kb.EntityID(i), U2: kb.EntityID(j)})
				vecs = append(vecs, v)
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) {
			pairs[i], pairs[j] = pairs[j], pairs[i]
			vecs[i], vecs[j] = vecs[j], vecs[i]
		})
		p := checkPruneOracle(t, fmt.Sprintf("iter %d", iter), pairs, vecs, []int{0, 1, 2, 3, 5})
		pruned[0] += p[0]
		pruned[1] += p[1]
	}
	if pruned[0] == 0 || pruned[1] == 0 {
		t.Fatalf("a pass pruned nothing over every case (%v): the comparison does not cover it", pruned)
	}
	t.Logf("pairs pruned by the first pass %d, by the second %d", pruned[0], pruned[1])

	ks := []int{1, 2, 4, 8}
	pairs, vecs := distinctBlock(rng, 300, 2)
	if p := checkPruneOracle(t, "all-distinct block", pairs, vecs, ks); p[0] == 0 {
		t.Error("all-distinct block: nothing pruned, the case covers no removal")
	}

	// 40 copies of v under three copies of a dominator w and beside two
	// incomparable vectors: v's rank is 3, reached only by counting w's
	// multiplicity.
	v, w, x := Vector{0.5, 0.5}, Vector{0.9, 0.6}, Vector{0.1, 0.9}
	var rep []Vector
	for i := 0; i < 45; i++ {
		switch {
		case i%15 == 7:
			rep = append(rep, w)
		case i == 11 || i == 30:
			rep = append(rep, x)
		default:
			rep = append(rep, v)
		}
	}
	pairs, _ = makePairs(rep)
	if p := checkPruneOracle(t, "repeated vector", pairs, rep, ks); p[0] == 0 {
		t.Error("repeated vector: nothing pruned, the case covers no removal")
	}

	pairs, vecs = dyCandidates(t)
	checkPruneOracle(t, "d-y", pairs, vecs, ks)
}

// checkPruneOracle holds Prune and Keep to the oracle for every k in ks on
// one Pruner and returns how many pairs the oracle's two passes removed.
func checkPruneOracle(t testing.TB, name string, pairs []pair.Pair, vecs []Vector, ks []int) (pruned [2]int) {
	t.Helper()
	pr, oracle := NewPruner(pairs, vecs), newOraclePruner(pairs, vecs)
	for _, k := range ks {
		want := oracle.Prune(pairs, k)
		got := pr.Prune(pairs, k)
		if !slices.Equal(got, want) {
			t.Fatalf("%s k=%d: Prune = %v, oracle %v", name, k, got, want)
		}
		keep := pr.Keep(pairs, k)
		for i, pos := range keep {
			if i > 0 && keep[i-1] >= pos || pairs[pos] != want[i] {
				t.Fatalf("%s k=%d: Keep = %v, oracle %v", name, k, keep, want)
			}
		}
		if len(keep) != len(want) {
			t.Fatalf("%s k=%d: Keep kept %d pairs, oracle %d", name, k, len(keep), len(want))
		}
		kk := k
		if kk <= 0 {
			kk = 4
		}
		first := oracle.pruneOneWay(pairs, kk, true)
		pruned[0] += len(pairs) - len(first)
		pruned[1] += len(first) - len(want)
	}
	return pruned
}

// distinctBlock is one K1 entity's block of n pairs whose dim-component
// vectors are all distinct.
func distinctBlock(rng *rand.Rand, n, dim int) ([]pair.Pair, []Vector) {
	vecs := make([]Vector, n)
	for i := range vecs {
		vecs[i] = make(Vector, dim)
		for d := range vecs[i] {
			vecs[i][d] = rng.Float64()
		}
	}
	pairs, _ := makePairs(vecs)
	return pairs, vecs
}

// dyCandidates is what Prepare hands Algorithm 1 on d-y: the blocking
// candidates and their similarity vectors over the attribute matches.
func dyCandidates(tb testing.TB) ([]pair.Pair, []Vector) {
	tb.Helper()
	ds, err := datasets.ByName("d-y", 1)
	if err != nil {
		tb.Fatal(err)
	}
	blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
	matches := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, attrmatch.DefaultOptions())
	pairs := make([]pair.Pair, len(blk.Candidates))
	for i, c := range blk.Candidates {
		pairs[i] = c.Pair
	}
	return pairs, NewBuilder(ds.K1, ds.K2, matches, 0).All(pairs)
}

// TestPrunerPanicsOnOtherPairs: a Pruner addresses its pairs by position,
// so a list of another length is misuse, not an empty result.
func TestPrunerPanicsOnOtherPairs(t *testing.T) {
	pairs, pr := makePairs([]Vector{{0.9}, {0.5}, {0.1}})
	for name, fn := range map[string]func(){
		"NewPruner": func() { NewPruner(pairs, []Vector{{1}}) },
		"Keep":      func() { pr.Keep(pairs[:2], 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
