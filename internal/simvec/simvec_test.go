package simvec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrmatch"
	"repro/internal/kb"
	"repro/internal/pair"
)

func TestVectorDominance(t *testing.T) {
	a := Vector{0.9, 0.8}
	b := Vector{0.5, 0.8}
	c := Vector{0.6, 0.2}
	if !a.Dominates(b) || !a.StrictlyDominates(b) {
		t.Error("a should strictly dominate b")
	}
	if a.StrictlyDominates(a) {
		t.Error("no strict self-domination")
	}
	if !a.Dominates(a) {
		t.Error("weak self-domination should hold")
	}
	if b.Dominates(c) || c.Dominates(b) {
		t.Error("b and c are incomparable")
	}
	if a.Dominates(Vector{0.1}) {
		t.Error("different lengths never dominate")
	}
	if !slices.Equal(a, Vector{0.9, 0.8}) || slices.Equal(a, b) {
		t.Error("Equal wrong")
	}
}

func TestBuilderVector(t *testing.T) {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	name1 := k1.AddAttr("name")
	year1 := k1.AddAttr("year")
	name2 := k2.AddAttr("title")
	year2 := k2.AddAttr("pubYear")
	u1 := k1.AddEntity("a")
	u2 := k2.AddEntity("b")
	k1.AddAttrTriple(u1, name1, "deep learning")
	k2.AddAttrTriple(u2, name2, "deep learning")
	k1.AddAttrTriple(u1, year1, "2015")
	// no year in k2 → second component 0

	matches := []attrmatch.Match{
		{A1: name1, A2: name2, Sim: 1},
		{A1: year1, A2: year2, Sim: 1},
	}
	b := NewBuilder(k1, k2, matches, 0.9)
	if b.Dim() != 2 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	v := b.Vector(pair.Pair{U1: u1, U2: u2})
	if v[0] != 1 {
		t.Errorf("name component = %v, want 1", v[0])
	}
	if v[1] != 0 {
		t.Errorf("missing-value component = %v, want 0", v[1])
	}
	// u1 has a name and a year, u2 only a title: the pair shares match 0.
	m1, m2 := b.AttrMasks(true), b.AttrMasks(false)
	a1, a2 := m1.Of(u1), m2.Of(u2)
	if len(a1) != 1 || len(a2) != 1 || a1[0] != 0b11 || a2[0] != 0b01 {
		t.Fatalf("attribute-match masks %08b, %08b, want [00000011], [00000001]", a1, a2)
	}
	if shared := a1[0] & a2[0]; shared != 0b01 {
		t.Errorf("shared attribute-match mask = %08b, want 00000001", shared)
	}
}

// makePairs builds a block of J candidate pairs for one K1 entity with
// given vectors.
func makePairs(vecs []Vector) ([]pair.Pair, *Pruner) {
	pairs := make([]pair.Pair, len(vecs))
	for i := range vecs {
		pairs[i] = pair.Pair{U1: 0, U2: kb.EntityID(i)}
	}
	return pairs, NewPruner(pairs, vecs)
}

func TestPruneKeepsSmallBlocks(t *testing.T) {
	vecs := []Vector{{0.9}, {0.5}, {0.1}}
	pairs, pr := makePairs(vecs)
	got := pr.Prune(pairs, 4)
	if len(got) != 3 {
		t.Errorf("block smaller than k should be untouched, got %v", got)
	}
}

func TestPruneRemovesDominated(t *testing.T) {
	// 6 pairs in one block, totally ordered; k=2 keeps only top 2.
	var vecs []Vector
	for i := 0; i < 6; i++ {
		vecs = append(vecs, Vector{float64(i) / 10})
	}
	pairs, pr := makePairs(vecs)
	got := pr.Prune(pairs, 2)
	if len(got) != 2 {
		t.Fatalf("kept %d pairs, want 2: %v", len(got), got)
	}
	// The survivors must be the two highest vectors (U2 = 4, 5).
	want := map[kb.EntityID]bool{4: true, 5: true}
	for _, p := range got {
		if !want[p.U2] {
			t.Errorf("unexpected survivor %v", p)
		}
	}
}

func TestPruneIncomparableSurvive(t *testing.T) {
	// Pairwise incomparable vectors: min_rank is 0 for all, so all stay
	// regardless of k.
	vecs := []Vector{{0.9, 0.1}, {0.8, 0.2}, {0.7, 0.3}, {0.6, 0.4}, {0.5, 0.5}, {0.4, 0.6}}
	pairs, pr := makePairs(vecs)
	got := pr.Prune(pairs, 2)
	if len(got) != len(pairs) {
		t.Errorf("incomparable pairs pruned: kept %d of %d", len(got), len(pairs))
	}
}

func TestPruneBothSides(t *testing.T) {
	// K2 entity 0 appears in many pairs; second pass must prune its block.
	var pairs []pair.Pair
	var vecs []Vector
	for i := 0; i < 6; i++ {
		pairs = append(pairs, pair.Pair{U1: kb.EntityID(i), U2: 0})
		vecs = append(vecs, Vector{float64(i) / 10})
	}
	pr := NewPruner(pairs, vecs)
	got := pr.Prune(pairs, 3)
	if len(got) != 3 {
		t.Errorf("kept %d pairs, want 3", len(got))
	}
}

// MinRank computes min_rank(u1,u2) of pairs[i] over the full candidate set
// (Eq. 2), the definition Prune's per-block bookkeeping is checked
// against: the max over both sides of the number of same-entity
// competitors whose vectors strictly dominate the pair's vector.
func (pr *Pruner) MinRank(pairs []pair.Pair, i int) int {
	p, v := pairs[i], pr.classVec(pr.class[i])
	r1, r2 := 0, 0
	for j, q := range pairs {
		if j == i {
			continue
		}
		if q.U1 == p.U1 && pr.classVec(pr.class[j]).StrictlyDominates(v) {
			r1++
		}
		if q.U2 == p.U2 && pr.classVec(pr.class[j]).StrictlyDominates(v) {
			r2++
		}
	}
	if r1 > r2 {
		return r1
	}
	return r2
}

func TestMinRank(t *testing.T) {
	pairs := []pair.Pair{
		{U1: 0, U2: 0},
		{U1: 0, U2: 1},
		{U1: 0, U2: 2},
		{U1: 1, U2: 2},
	}
	vecs := []Vector{{0.9}, {0.5}, {0.1}, {0.3}}
	pr := NewPruner(pairs, vecs)
	if r := pr.MinRank(pairs, 0); r != 0 {
		t.Errorf("top pair rank = %d, want 0", r)
	}
	if r := pr.MinRank(pairs, 1); r != 1 {
		t.Errorf("middle pair rank = %d, want 1", r)
	}
	// (0,2): dominated by (0,0),(0,1) on side1; by (1,2) on side2 ⇒ max(2,1)=2.
	if r := pr.MinRank(pairs, 2); r != 2 {
		t.Errorf("bottom pair rank = %d, want 2", r)
	}
}

// Property: pruning never removes a pair that has min_rank < k on both
// sides and is not dominated by any removed pair — in particular the block
// maximum always survives.
func TestPrunePreservesBlockMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		nLeft, nRight, dim := 1+rng.Intn(4), 1+rng.Intn(8), 1+rng.Intn(3)
		var pairs []pair.Pair
		var vecs []Vector
		for i := 0; i < nLeft; i++ {
			for j := 0; j < nRight; j++ {
				if rng.Intn(3) == 0 {
					continue
				}
				v := make(Vector, dim)
				for d := range v {
					v[d] = float64(rng.Intn(10)) / 10
				}
				pairs = append(pairs, pair.Pair{U1: kb.EntityID(i), U2: kb.EntityID(j)})
				vecs = append(vecs, v)
			}
		}
		if len(pairs) == 0 {
			continue
		}
		pr := NewPruner(pairs, vecs)
		k := 1 + rng.Intn(3)
		kept := pr.Prune(pairs, k)
		keptSet := pair.NewSet(kept...)
		// Any pair with global min_rank 0 (undominated on both sides) must
		// survive: it can never be pruned directly, and nothing dominating
		// it exists to trigger cascade removal.
		for i, p := range pairs {
			if pr.MinRank(pairs, i) == 0 && !keptSet.Has(p) {
				t.Fatalf("iter %d: undominated pair %v pruned (k=%d)", iter, p, k)
			}
		}
	}
}

// Property: output of Prune is a subset of the input and deterministic.
func TestPruneSubsetAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pairs []pair.Pair
	var vecs []Vector
	for i := 0; i < 40; i++ {
		pairs = append(pairs, pair.Pair{U1: kb.EntityID(rng.Intn(5)), U2: kb.EntityID(i)})
		vecs = append(vecs, Vector{rng.Float64(), rng.Float64()})
	}
	pr := NewPruner(pairs, vecs)
	a := pr.Prune(pairs, 3)
	b := pr.Prune(pairs, 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic prune size")
	}
	in := pair.NewSet(pairs...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic prune order")
		}
		if !in.Has(a[i]) {
			t.Fatalf("prune invented pair %v", a[i])
		}
	}
}

func TestPruneLargerKKeepsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pairs []pair.Pair
	var vecs []Vector
	for j := 0; j < 30; j++ {
		pairs = append(pairs, pair.Pair{U1: 0, U2: kb.EntityID(j)})
		vecs = append(vecs, Vector{rng.Float64()})
	}
	pr := NewPruner(pairs, vecs)
	sizes := []int{}
	for _, k := range []int{1, 2, 4, 8, 16} {
		sizes = append(sizes, len(pr.Prune(pairs, k)))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("larger k kept fewer pairs: %v", sizes)
		}
	}
	_ = fmt.Sprint(sizes)
}
