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
	"math"
	"runtime"

	"repro/internal/attrmatch"
	"repro/internal/kb"
	"repro/internal/pair"
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
	runner    pair.Runner
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
func (b *Builder) SetRunner(r pair.Runner) { b.runner = r }

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

// All computes vectors for every pair, preserving order. One pass over
// the pairs per side lists each entity's value sets on first sight — once
// per entity, however many pairs it is in — in one dense table per side;
// the listed literals are then interned into a per-call corpus in one
// batch, and pair vectors scored from the tables, both in parallel when a
// Runner is set. Each out[i] is byte-identical to Vector(pairs[i]). The vectors
// are disjoint windows of one array, which is all that outlives the call:
// corpus and tables are garbage on return, and a second call starts from
// nothing.
func (b *Builder) All(pairs []pair.Pair) []Vector {
	out := make([]Vector, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	dim := len(b.matches)
	bt := batch{
		pairs:     pairs,
		dim:       dim,
		threshold: b.threshold,
		corpus:    strsim.NewCorpus(),
		side1:     newValueTable(b.k1.NumEntities()),
		side2:     newValueTable(b.k2.NumEntities()),
		flat:      make([]float64, len(pairs)*dim),
	}
	attrs1 := make([]kb.AttrID, dim)
	attrs2 := make([]kb.AttrID, dim)
	for i, m := range b.matches {
		attrs1[i], attrs2[i] = m.A1, m.A2
	}
	for i := range pairs {
		out[i] = bt.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	// The two sides' tables are independent: one task each.
	pair.RunAll(b.runner, 2, func(side int) {
		for _, p := range pairs {
			if side == 0 {
				bt.side1.add(b.k1, p.U1, attrs1)
			} else {
				bt.side2.add(b.k2, p.U2, attrs2)
			}
		}
	})
	n1 := len(bt.side1.vals)
	lits := bt.corpus.InternAll(b.runner, append(bt.side1.vals, bt.side2.vals...))
	bt.side1.lits, bt.side2.lits = lits[:n1], lits[n1:]
	chunks := pair.ChunkRanges(len(pairs), b.runner, runtime.NumCPU())
	pair.RunAll(b.runner, len(chunks), func(ci int) {
		bt.score(chunks[ci].Lo, chunks[ci].Hi)
	})
	return out
}

// valueTable is one KB side of a batch: the interned value sets of every
// entity the pair list mentions, one per attribute match, entity by
// entity in order of first sight.
type valueTable struct {
	// base maps an entity to 1 + the index of its first value set, 0
	// until first sight (off is never empty, so a real base is never 0).
	base []int32
	off  []int32 // value set i is lits[off[i]:off[i+1]]
	vals []string
	lits []strsim.LitID // vals, interned
}

func newValueTable(numEntities int) valueTable {
	return valueTable{base: make([]int32, numEntities), off: []int32{0}}
}

// add lists u's value set on every attribute of attrs (one per attribute
// match), unless u was added before.
func (t *valueTable) add(k *kb.KB, u kb.EntityID, attrs []kb.AttrID) {
	if t.base[u] != 0 {
		return
	}
	t.base[u] = int32(len(t.off))
	for _, a := range attrs {
		t.vals = append(t.vals, k.AttrValues(u, a)...)
		t.off = append(t.off, int32(len(t.vals)))
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

// score fills the vectors of pairs[lo:hi]; ranges are disjoint, so chunks
// run concurrently.
//
//remp:hotpath
func (bt *batch) score(lo, hi int) {
	var sc strsim.MatchScratch
	for i := lo; i < hi; i++ {
		p := bt.pairs[i]
		v := bt.flat[i*bt.dim : (i+1)*bt.dim]
		for mi := range v {
			va, vb := bt.side1.set(p.U1, mi), bt.side2.set(p.U2, mi)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v[mi] = bt.corpus.SimL(va, vb, bt.threshold, &sc)
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
// was built on. It addresses every pair by its position in that list:
// vectors[i] is pairs[i]'s vector, and Prune and Keep take the same list.
// One Pruner serves any number of k.
type Pruner struct {
	vectors []Vector
	// class[i] numbers vectors[i] among the distinct vectors: two pairs
	// share a class iff their vectors are bitwise equal.
	class  []int32
	nClass int
}

// NewPruner receives the similarity vectors of all candidate pairs
// (Algorithm 1, line 1), vectors[i] being pairs[i]'s. The Pruner keeps the
// vectors slice itself, not a copy, and numbers its distinct vectors in
// one hashing pass.
func NewPruner(pairs []pair.Pair, vectors []Vector) *Pruner {
	if len(pairs) != len(vectors) {
		panic(fmt.Sprintf("simvec: %d pairs but %d vectors", len(pairs), len(vectors)))
	}
	pr := &Pruner{vectors: vectors, class: make([]int32, len(vectors))}
	ids := make(map[string]int32)
	var key []byte
	for i, v := range vectors {
		key = key[:0]
		for _, x := range v {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		pr.class[i] = id
	}
	pr.nClass = len(ids)
	return pr
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
	if len(pairs) != len(pr.vectors) {
		panic(fmt.Sprintf("simvec: pruning %d pairs with a Pruner built on %d", len(pairs), len(pr.vectors)))
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
// distinct vectors in order of first occurrence — a representative
// position, the multiplicity and whether the class is removed — and slot,
// which maps a class to 1 + its index there (0 outside the block).
type blockScratch struct {
	slot   []int32
	reps   []int32
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
			sc.reps = append(sc.reps, pos)
			sc.weight = append(sc.weight, 0)
			sc.slot[c] = int32(len(sc.reps))
		}
		sc.weight[sc.slot[c]-1]++
	}
	sc.dead = append(sc.dead[:0], make([]bool, len(sc.reps))...)
	for i, pi := range sc.reps {
		if sc.dead[i] {
			continue
		}
		vi := pr.vectors[pi]
		rank := 0
		for j, pj := range sc.reps {
			if j != i && pr.vectors[pj].StrictlyDominates(vi) {
				rank += int(sc.weight[j])
				if rank >= k {
					break
				}
			}
		}
		if rank >= k {
			sc.dead[i] = true
			// Everything dominated by vi has rank ≥ rank(i) ≥ k.
			for j, pj := range sc.reps {
				if !sc.dead[j] && vi.StrictlyDominates(pr.vectors[pj]) {
					sc.dead[j] = true
				}
			}
		}
	}
	for _, pos := range block {
		removed[pos] = sc.dead[sc.slot[pr.class[pos]]-1]
	}
	for _, pos := range sc.reps {
		sc.slot[pr.class[pos]] = 0
	}
}
