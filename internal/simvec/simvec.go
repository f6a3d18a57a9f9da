// Package simvec assembles similarity vectors over attribute matches and
// implements the partial-order-based pruning of §IV-D (Algorithm 1): each
// candidate entity pair (u1,u2) gets a vector s(u1,u2) whose i-th component
// is the simL similarity of the pair's value sets on the i-th attribute
// match; the natural partial order s ≻ s′ (componentwise ≥ with at least
// one >) induces min_rank, and pairs whose worst rank reaches k are pruned
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
// literal corpus and value tables a batch works on live for one All call.
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
// AllIn's array, computed with a Workspace of its own.
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
// Vector(pairs[i]). Literal words are cut in ws (nil: a new one). A pass
// over the pairs per side counts each entity's value sets on first sight
// — once per entity, however many pairs it is in — and a second lists
// them, in one dense table per side over one array of literals sized by
// the count; the literals are then interned into a per-call corpus in one
// batch, and pair vectors scored from the tables, both in parallel when a
// Runner is set: the scoring in grains of scoreGrain pairs or more, which
// the workers take from one cursor, each with one scratch. The array is
// all that outlives the call: corpus and tables are garbage on return,
// and a second call starts from nothing.
func (b *Builder) AllIn(pairs []pair.Pair, ws *strsim.Workspace) (flat []float64) {
	if len(pairs) == 0 {
		return nil
	}
	dim := len(b.matches)
	bt := batch{
		pairs:     pairs,
		dim:       dim,
		threshold: b.threshold,
		corpus:    strsim.NewCorpus(ws),
		side1:     valueTable{k: b.k1, side1: true, attrs: make([]kb.AttrID, dim)},
		side2:     valueTable{k: b.k2, attrs: make([]kb.AttrID, dim)},
		flat:      make([]float64, len(pairs)*dim),
	}
	for i, m := range b.matches {
		bt.side1.attrs[i], bt.side2.attrs[i] = m.A1, m.A2
	}
	// The two sides' tables are independent: one task each.
	sides := [2]*valueTable{&bt.side1, &bt.side2}
	par.RunAll(b.runner, 2, func(side int) { sides[side].count(pairs) })
	n1 := bt.side1.off[len(bt.side1.off)-1]
	vals := make([]string, n1+bt.side2.off[len(bt.side2.off)-1])
	bt.side1.vals, bt.side2.vals = vals[:n1], vals[n1:]
	par.RunAll(b.runner, 2, func(side int) { sides[side].list(pairs) })
	lits := bt.corpus.InternAll(b.runner, vals)
	bt.side1.lits, bt.side2.lits = lits[:n1], lits[n1:]
	par.Work(b.runner, par.Grains(b.runner, len(pairs), scoreGrain), func(next iter.Seq2[int, par.Range]) {
		var sc strsim.MatchScratch // one per worker
		for _, rg := range next {
			bt.score(rg.Lo, rg.Hi, &sc)
		}
	})
	return bt.flat
}

// scoreGrain is the fewest pairs a grain of AllIn's scoring holds: below
// it a helper costs more to start than the pairs it would score. Tests
// lower it; the cut never affects the result.
var scoreGrain = 512

// valueTable is one KB side of a batch: the interned value sets of every
// entity the pair list mentions on the K1 (side1) or K2 side, one per
// attribute match (attrs holds the side's attribute of each), entity by
// entity in order of first sight.
type valueTable struct {
	k     *kb.KB
	side1 bool
	attrs []kb.AttrID
	// base maps an entity to 1 + the index of its first value set, 0 if
	// it is in no pair.
	base []int32
	off  []int32        // value set i is vals[off[i]:off[i+1]], and lits the same
	vals []string       // the side's literals
	lits []strsim.LitID // vals, interned
}

func (t *valueTable) entity(p pair.Pair) kb.EntityID {
	if t.side1 {
		return p.U1
	}
	return p.U2
}

// count numbers the side's entities in order of first sight and counts
// their values into the offsets' last entry, so that list needs no
// growing.
func (t *valueTable) count(pairs []pair.Pair) {
	t.base = make([]int32, t.k.NumEntities())
	sets, nvals := int32(0), int32(0)
	for _, p := range pairs {
		if u := t.entity(p); t.base[u] == 0 {
			t.base[u], sets = sets+1, sets+int32(len(t.attrs))
			for _, a := range t.attrs {
				nvals += int32(len(t.k.AttrValues(u, a)))
			}
		}
	}
	t.off = make([]int32, sets+1)
	t.off[sets] = nvals
}

// list copies the counted values into vals and sets the offsets, visiting
// the entities in count's order: an entity is new where its first set is
// the next one unlisted.
func (t *valueTable) list(pairs []pair.Pair) {
	i, n := int32(0), int32(0)
	for _, p := range pairs {
		if u := t.entity(p); t.base[u]-1 == i {
			for _, a := range t.attrs {
				n += int32(copy(t.vals[n:], t.k.AttrValues(u, a)))
				i++
				t.off[i] = n
			}
		}
	}
}

// set returns u's value set on attribute match mi.
func (t *valueTable) set(u kb.EntityID, mi int) []strsim.LitID {
	i := int(t.base[u]) - 1 + mi
	return t.lits[t.off[i]:t.off[i+1]]
}

// batch is the state of one All call.
type batch struct {
	pairs        []pair.Pair
	dim          int
	threshold    float64
	corpus       *strsim.Corpus
	side1, side2 valueTable
	flat         []float64 // vector i is flat[i*dim:(i+1)*dim]
}

// score fills the vectors of pairs[lo:hi] in the worker's scratch sc;
// ranges are disjoint, so grains run concurrently.
//
//remp:hotpath
func (bt *batch) score(lo, hi int, sc *strsim.MatchScratch) {
	for i := lo; i < hi; i++ {
		p := bt.pairs[i]
		v := bt.flat[i*bt.dim : (i+1)*bt.dim]
		for mi := range v {
			va, vb := bt.side1.set(p.U1, mi), bt.side2.set(p.U2, mi)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v[mi] = bt.corpus.SimL(va, vb, bt.threshold, sc)
		}
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
