// Package simvec assembles similarity vectors over attribute matches and
// implements the partial-order-based pruning of §IV-D (Algorithm 1): each
// candidate entity pair (u1,u2) gets a vector s(u1,u2) whose i-th component
// is the simL similarity of the pair's value sets — the KBs' literal-ID
// rows, read through a strsim.Corpus — on the i-th attribute match; the
// natural partial order s ≻ s′ (componentwise ≥ with at least one >)
// induces min_rank, and pairs whose worst rank reaches k are pruned
// together with everything they dominate.
package simvec

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"

	"repro/internal/attrmatch"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/strsim"
)

// Vector is a similarity vector; one component per attribute match.
type Vector []float64

// Dominates reports s ⪰ t: every component of s is ≥ the matching
// component of t. (The paper's pruning uses the weak form; strictness is
// handled by StrictlyDominates.)
func (s Vector) Dominates(t Vector) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] < t[i] {
			return false
		}
	}
	return true
}

// StrictlyDominates reports s ≻ t: s ⪰ t and s ≠ t.
func (s Vector) StrictlyDominates(t Vector) bool {
	if !s.Dominates(t) {
		return false
	}
	for i := range s {
		if s[i] > t[i] {
			return true
		}
	}
	return false
}

// Builder computes similarity vectors for candidate pairs. It holds only
// its inputs — the two KBs, the attribute matches and the threshold; the
// literal corpus a batch reads is the caller's, or lives for one All
// call.
type Builder struct {
	k1, k2    *kb.KB
	matches   []attrmatch.Match
	threshold float64
	runner    par.Runner
}

// NewBuilder returns a Builder over the given attribute matches;
// literalThreshold is the internal simL threshold (0.9 in the paper).
func NewBuilder(k1, k2 *kb.KB, matches []attrmatch.Match, literalThreshold float64) *Builder {
	if literalThreshold == 0 {
		literalThreshold = 0.9
	}
	return &Builder{k1: k1, k2: k2, matches: matches, threshold: literalThreshold}
}

// Dim returns the vector dimensionality |Mat|.
func (b *Builder) Dim() int { return len(b.matches) }

// SetRunner makes All compute vectors in parallel. The output is
// byte-identical either way; nil (the default) means serial.
func (b *Builder) SetRunner(r par.Runner) { b.runner = r }

// Vector computes s(u1,u2). It is the retained per-pair string
// implementation — the semantic anchor the property tests hold All to.
func (b *Builder) Vector(p pair.Pair) Vector {
	v := make(Vector, len(b.matches))
	for i, m := range b.matches {
		v1 := b.k1.AttrValues(p.U1, m.A1)
		v2 := b.k2.AttrValues(p.U2, m.A2)
		if len(v1) == 0 || len(v2) == 0 {
			continue
		}
		v[i] = strsim.SimL(v1, v2, b.threshold)
	}
	return v
}

// All computes vectors for every pair, preserving order: windows of
// AllIn's array, computed over a corpus of its own.
func (b *Builder) All(pairs []pair.Pair) []Vector {
	dim, flat := b.Dim(), b.AllIn(pairs, nil)
	out := make([]Vector, len(pairs))
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// AllIn computes the vectors of every pair, preserving order, in one flat
// array: pairs[i]'s is flat[i*Dim():(i+1)*Dim()], byte-identical to
// Vector(pairs[i]). Literals are read through c, a corpus over the
// Builder's KB pair (nil: a new one). Each side lists the literal-ID rows
// of its entities once, however many pairs an entity is in, marking their
// literals in c — one task per side — and c loads them in one batch,
// skipping those an earlier stage loaded. The pair vectors are then
// scored off the rows, in parallel when a Runner is set: in grains of
// scoreGrain pairs or more, which the workers take from one cursor, each
// with one scratch. The array is all the call allocates that outlives it.
func (b *Builder) AllIn(pairs []pair.Pair, c *strsim.Corpus) (flat []float64) {
	if len(pairs) == 0 {
		return nil
	}
	if c == nil {
		c = strsim.NewCorpus(b.k1, b.k2, nil)
	}
	dim := len(b.matches)
	var sides [2]valueRows
	par.RunAll(b.runner, 2, func(side int) {
		k, attrs := b.k1, make([]kb.AttrID, dim)
		if side == 1 {
			k = b.k2
		}
		for i, m := range b.matches {
			attrs[i] = [2]kb.AttrID{m.A1, m.A2}[side]
		}
		sides[side] = newValueRows(k, attrs, pairs, side, c)
	})
	c.Load(b.runner)
	flat = make([]float64, len(pairs)*dim)
	par.Work(b.runner, par.Grains(b.runner, len(pairs), scoreGrain), func(next iter.Seq2[int, par.Range]) {
		var sc strsim.MatchScratch // one per worker
		for _, rg := range next {
			for i := rg.Lo; i < rg.Hi; i++ {
				b.score(c, &sides, pairs[i], flat[i*dim:(i+1)*dim], &sc)
			}
		}
	})
	return flat
}

// scoreGrain is the fewest pairs a grain of AllIn's scoring holds: below
// it a helper costs more to start than the pairs it would score. Tests
// lower it; the cut never affects the result.
var scoreGrain = 512

// valueRows is one KB side of an AllIn call: the literal-ID rows of every
// entity the pairs mention on that side, one per attribute match, entity
// by entity in order of first sight, each a window of the KB's own array.
// base[u] numbers entity u from 1 in that order, 0 if it is in no pair.
type valueRows struct {
	base []int32
	rows [][]kb.LitID
	dim  int
}

// newValueRows lists the rows of side's entities (0: K1, 1: K2) on attrs,
// one per attribute match, and marks their literals in c. A first pass
// numbers the entities, so that the list is made at its size; a second
// reads each entity's rows when it meets the entity numbered next.
func newValueRows(k *kb.KB, attrs []kb.AttrID, pairs []pair.Pair, side int, c *strsim.Corpus) valueRows {
	t := valueRows{base: make([]int32, k.NumEntities()), dim: len(attrs)}
	entity := func(p pair.Pair) kb.EntityID { return [2]kb.EntityID{p.U1, p.U2}[side] }
	n := int32(0)
	for _, p := range pairs {
		if u := entity(p); t.base[u] == 0 {
			n++
			t.base[u] = n
		}
	}
	t.rows = make([][]kb.LitID, 0, int(n)*t.dim)
	for _, p := range pairs {
		if u := entity(p); int(t.base[u]-1)*t.dim == len(t.rows) {
			for _, a := range attrs {
				ids := k.AttrLits(u, a)
				c.Add(side, ids)
				t.rows = append(t.rows, ids)
			}
		}
	}
	return t
}

// row returns entity u's literal-ID row on attribute match mi.
func (t *valueRows) row(u kb.EntityID, mi int) []kb.LitID {
	return t.rows[int(t.base[u]-1)*t.dim+mi]
}

// score fills pair p's vector v in the worker's scratch sc; pairs' vectors
// are disjoint, so grains run concurrently.
//
//remp:hotpath
func (b *Builder) score(c *strsim.Corpus, sides *[2]valueRows, p pair.Pair, v []float64, sc *strsim.MatchScratch) {
	for mi := range v {
		va, vb := sides[0].row(p.U1, mi), sides[1].row(p.U2, mi)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		v[mi] = c.SimL(va, vb, b.threshold, sc)
	}
}

// AttrMasks holds one bitmask over the attribute matches per entity of
// one KB side: bit i%8 of byte i/8 of entity u's mask is set when u has a
// value on its side's attribute of match i. The attribute matches on which
// both entities of a pair have a value — the signatures of the
// isolated-pair classifier's neighborhoods (§VII-B) — are the AND of the
// two entities' masks.
type AttrMasks struct {
	width int
	bits  []byte
}

// Of returns entity u's mask, (Dim()+7)/8 bytes, read-only.
func (m AttrMasks) Of(u kb.EntityID) []byte {
	lo, hi := int(u)*m.width, (int(u)+1)*m.width
	return m.bits[lo:hi:hi]
}

// AttrMasks returns the masks of every entity of K1 (side1) or of K2, read
// from each entity's attribute list.
func (b *Builder) AttrMasks(side1 bool) AttrMasks {
	k := b.k2
	if side1 {
		k = b.k1
	}
	byAttr := make([][]int, k.NumAttrs())
	for i, m := range b.matches {
		a := m.A2
		if side1 {
			a = m.A1
		}
		byAttr[a] = append(byAttr[a], i)
	}
	m := AttrMasks{width: (len(b.matches) + 7) / 8}
	m.bits = make([]byte, k.NumEntities()*m.width)
	for u := range k.NumEntities() {
		mask := m.Of(kb.EntityID(u))
		for _, a := range k.Attrs(kb.EntityID(u)) {
			for _, i := range byAttr[a] {
				mask[i/8] |= 1 << (i % 8)
			}
		}
	}
	return m
}

// Pruner runs partial-order-based pruning (Algorithm 1) over the pairs it
// was built on. It addresses every pair by its position in that list, and
// Prune and Keep take the same list. It keeps each distinct vector once:
// that is all Algorithm 1 compares. One Pruner serves any number of k.
type Pruner struct {
	// class[i] numbers pairs[i]'s vector among the distinct vectors: two
	// pairs share a class iff their vectors are bitwise equal. Class c's
	// vector is distinct[c*dim:(c+1)*dim].
	class    []int32
	nClass   int
	distinct []float64
	dim      int
}

// NewPruner receives the similarity vectors of all candidate pairs
// (Algorithm 1, line 1), vectors[i] being pairs[i]'s, all of one length,
// and numbers their distinct vectors in one hashing pass.
func NewPruner(pairs []pair.Pair, vectors []Vector) *Pruner {
	if len(pairs) != len(vectors) {
		panic(fmt.Sprintf("simvec: %d pairs but %d vectors", len(pairs), len(vectors)))
	}
	dim := 0
	if len(vectors) > 0 {
		dim = len(vectors[0])
	}
	return newPruner(len(pairs), dim, func(i int) Vector {
		if len(vectors[i]) != dim {
			panic(fmt.Sprintf("simvec: vectors of %d and %d components", dim, len(vectors[i])))
		}
		return vectors[i]
	})
}

// NewFlatPruner is NewPruner over vectors laid out as AllIn returns them:
// pairs[i]'s is flat[i*dim:(i+1)*dim].
func NewFlatPruner(pairs []pair.Pair, flat []float64, dim int) *Pruner {
	if len(flat) != len(pairs)*dim {
		panic(fmt.Sprintf("simvec: %d pairs but %d components of dimension %d", len(pairs), len(flat), dim))
	}
	return newPruner(len(pairs), dim, func(i int) Vector { return flat[i*dim : (i+1)*dim] })
}

// newPruner numbers the distinct vectors among vec(0) to vec(n-1), each of
// dim components, and keeps one copy of each.
func newPruner(n, dim int, vec func(i int) Vector) *Pruner {
	pr := &Pruner{class: make([]int32, n), dim: dim}
	ids := make(map[string]int32)
	var key []byte
	for i := range n {
		v := vec(i)
		key = key[:0]
		for _, x := range v {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
			pr.distinct = append(pr.distinct, v...)
		}
		pr.class[i] = id
	}
	pr.nClass = len(ids)
	return pr
}

// classVec returns class c's vector, read-only.
func (pr *Pruner) classVec(c int32) Vector {
	lo, hi := int(c)*pr.dim, int(c+1)*pr.dim
	return pr.distinct[lo:hi:hi]
}

// Prune implements Algorithm 1: two one-way passes (by K1 entity, then by
// K2 entity), each pruning pairs whose min_rank within their block reaches
// k, plus every pair they dominate. It returns the retained match set Mrd
// in the original order of pairs, which must be the list the Pruner was
// built on.
func (pr *Pruner) Prune(pairs []pair.Pair, k int) []pair.Pair {
	keep := pr.Keep(pairs, k)
	out := make([]pair.Pair, len(keep))
	for i, pos := range keep {
		out[i] = pairs[pos]
	}
	return out
}

// Keep is Prune by position: the ascending positions in pairs of the
// retained match set Mrd.
func (pr *Pruner) Keep(pairs []pair.Pair, k int) []int32 {
	if len(pairs) != len(pr.class) {
		panic(fmt.Sprintf("simvec: pruning %d pairs with a Pruner built on %d", len(pairs), len(pr.class)))
	}
	if k <= 0 {
		k = 4
	}
	removed := make([]bool, len(pairs))
	sc := blockScratch{slot: make([]int32, pr.nClass)}
	pr.pruneOneWay(pairs, k, true, removed, &sc)
	pr.pruneOneWay(pairs, k, false, removed, &sc)
	keep := make([]int32, 0, len(pairs))
	for i, r := range removed {
		if !r {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// pruneOneWay is PruningInOneWay from Algorithm 1, over the pairs not yet
// removed. bySide1 selects whether blocks group pairs sharing the K1
// entity (min_rank_1) or the K2 entity (min_rank_2). A block lists its
// pairs in input order, and only blocks of more than k pairs are ranked.
// Blocks are disjoint, so a block read before it is pruned holds exactly
// the survivors of the earlier pass.
func (pr *Pruner) pruneOneWay(pairs []pair.Pair, k int, bySide1 bool, removed []bool, sc *blockScratch) {
	start, order := pair.GroupByEntity(pairs, bySide1)
	var block []int32
	for e := 0; e+1 < len(start); e++ {
		block = block[:0]
		for _, pos := range order[start[e]:start[e+1]] {
			if !removed[pos] {
				block = append(block, pos)
			}
		}
		if len(block) > k {
			pr.pruneBlock(block, k, removed, sc)
		}
	}
}

// blockScratch is pruneBlock's state, reused across blocks: the block's
// distinct vectors in order of first occurrence — the class, the vector,
// the multiplicity and whether the class is removed — and slot, which maps
// a class to 1 + its index there (0 outside the block).
type blockScratch struct {
	slot   []int32
	reps   []int32
	vecs   []Vector
	weight []int32
	dead   []bool
}

// pruneBlock prunes a single block B, given as positions: any pair with
// min_rank ≥ k is marked removed, and (per the paper) so is every pair
// dominated by a removed pair, since its min_rank must also be ≥ k. The
// removed set is therefore exactly {min_rank ≥ k}, and min_rank — the
// number of vectors in B strictly larger — is a function of B's multiset.
// So the block is ranked over its distinct vectors, each counting with its
// multiplicity: equal vectors are compared once, and no block takes more
// dominance tests than ranking it pair by pair would.
func (pr *Pruner) pruneBlock(block []int32, k int, removed []bool, sc *blockScratch) {
	sc.reps, sc.weight = sc.reps[:0], sc.weight[:0]
	for _, pos := range block {
		c := pr.class[pos]
		if sc.slot[c] == 0 {
			sc.reps = append(sc.reps, c)
			sc.weight = append(sc.weight, 0)
			sc.slot[c] = int32(len(sc.reps))
		}
		sc.weight[sc.slot[c]-1]++
	}
	sc.dead = append(sc.dead[:0], make([]bool, len(sc.reps))...)
	sc.vecs = sc.vecs[:0]
	for _, c := range sc.reps {
		sc.vecs = append(sc.vecs, pr.classVec(c))
	}
	for i, vi := range sc.vecs {
		if sc.dead[i] {
			continue
		}
		rank := 0
		for j, vj := range sc.vecs {
			if j != i && vj.StrictlyDominates(vi) {
				rank += int(sc.weight[j])
				if rank >= k {
					break
				}
			}
		}
		if rank >= k {
			sc.dead[i] = true
			// Everything dominated by vi has rank ≥ rank(i) ≥ k.
			for j, vj := range sc.vecs {
				if !sc.dead[j] && vi.StrictlyDominates(vj) {
					sc.dead[j] = true
				}
			}
		}
	}
	for _, pos := range block {
		removed[pos] = sc.dead[sc.slot[pr.class[pos]]-1]
	}
	for _, c := range sc.reps {
		sc.slot[c] = 0
	}
}
