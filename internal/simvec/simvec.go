// Package simvec assembles similarity vectors over attribute matches and
// implements the partial-order-based pruning of §IV-D (Algorithm 1): each
// candidate entity pair (u1,u2) gets a vector s(u1,u2) whose i-th component
// is the simL similarity of the pair's value sets on the i-th attribute
// match; the natural partial order s ≻ s′ (componentwise ≥ with at least
// one >) induces min_rank, and pairs whose worst rank reaches k are pruned
// together with everything they dominate.
package simvec

import (
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

// Runner runs n independent tasks, possibly in parallel. *core.Scheduler
// satisfies it; simvec declares its own interface because core imports
// this package.
type Runner interface {
	ForEach(n int, fn func(i int))
}

// Builder computes similarity vectors for candidate pairs.
type Builder struct {
	k1, k2    *kb.KB
	matches   []attrmatch.Match
	threshold float64
	runner    Runner

	// Batch state, built lazily by All: each distinct (entity, attribute)
	// value set is interned into the corpus exactly once, so the SimL of
	// millions of pairs runs on cached kinds, parsed values and dense
	// token IDs instead of re-tokenizing strings per comparison.
	corpus *strsim.Corpus
	lits1  map[valKey][]strsim.LitID
	lits2  map[valKey][]strsim.LitID
}

// valKey addresses one entity's value set on one attribute.
type valKey struct {
	u kb.EntityID
	a kb.AttrID
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
func (b *Builder) SetRunner(r Runner) { b.runner = r }

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

// All computes vectors for every pair, preserving order. It runs the
// batched path: one serial pass interns every needed value set into the
// builder's corpus, then pair vectors are computed — in parallel when a
// Runner is set — from cached dense literal IDs. Each out[i] is
// byte-identical to Vector(pairs[i]).
func (b *Builder) All(pairs []pair.Pair) []Vector {
	out := make([]Vector, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	if b.corpus == nil {
		b.corpus = strsim.NewCorpus()
		b.lits1 = make(map[valKey][]strsim.LitID)
		b.lits2 = make(map[valKey][]strsim.LitID)
	}
	// Interning mutates the corpus, so it stays serial; the scoring pass
	// below only reads it.
	for _, p := range pairs {
		for _, m := range b.matches {
			b.intern(b.lits1, b.k1, p.U1, m.A1)
			b.intern(b.lits2, b.k2, p.U2, m.A2)
		}
	}
	chunks := chunkRanges(len(pairs), b.runner)
	runAll(b.runner, len(chunks), func(ci int) {
		var sc strsim.MatchScratch
		for i := chunks[ci].lo; i < chunks[ci].hi; i++ {
			p := pairs[i]
			v := make(Vector, len(b.matches))
			for mi, m := range b.matches {
				va := b.lits1[valKey{u: p.U1, a: m.A1}]
				vb := b.lits2[valKey{u: p.U2, a: m.A2}]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v[mi] = b.corpus.SimL(va, vb, b.threshold, &sc)
			}
			out[i] = v
		}
	})
	return out
}

// intern caches the dense literal IDs of one (entity, attribute) value
// set, interning the literals on first sight.
func (b *Builder) intern(cache map[valKey][]strsim.LitID, k *kb.KB, u kb.EntityID, a kb.AttrID) {
	key := valKey{u: u, a: a}
	if _, ok := cache[key]; ok {
		return
	}
	cache[key] = b.corpus.InternAll(k.AttrValues(u, a))
}

// chunkRange is a half-open [lo, hi) range of pair indexes.
type chunkRange struct{ lo, hi int }

// chunkRanges splits n pairs into contiguous chunks: one per CPU when a
// runner is present, a single chunk otherwise.
func chunkRanges(n int, r Runner) []chunkRange {
	if n == 0 {
		return nil
	}
	nc := 1
	if r != nil {
		nc = runtime.NumCPU()
		if nc > n {
			nc = n
		}
	}
	out := make([]chunkRange, nc)
	for i := 0; i < nc; i++ {
		out[i] = chunkRange{lo: i * n / nc, hi: (i + 1) * n / nc}
	}
	return out
}

// runAll executes fn(0..n-1) through r, or serially when r is nil.
func runAll(r Runner, n int, fn func(int)) {
	if r == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r.ForEach(n, fn)
}

// SharedAttrMatches returns the indexes of attribute matches on which both
// entities of p have at least one value. Used by the isolated-pair
// classifier's neighborhood (§VII-B).
func (b *Builder) SharedAttrMatches(p pair.Pair) []int {
	var out []int
	for i, m := range b.matches {
		if len(b.k1.AttrValues(p.U1, m.A1)) > 0 && len(b.k2.AttrValues(p.U2, m.A2)) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Pruner runs partial-order-based pruning (Algorithm 1).
type Pruner struct {
	vectors map[pair.Pair]Vector
}

// NewPruner precomputes (or receives) the similarity vectors of all
// candidate pairs (Algorithm 1, line 1).
func NewPruner(pairs []pair.Pair, vectors []Vector) *Pruner {
	m := make(map[pair.Pair]Vector, len(pairs))
	for i, p := range pairs {
		m[p] = vectors[i]
	}
	return &Pruner{vectors: m}
}

// VectorOf returns the stored vector for p.
func (pr *Pruner) VectorOf(p pair.Pair) Vector { return pr.vectors[p] }

// Prune implements Algorithm 1: two one-way passes (by K1 entity, then by
// K2 entity), each pruning pairs whose min_rank within their block reaches
// k, plus every pair they dominate. It returns the retained match set Mrd
// in the original order of pairs.
func (pr *Pruner) Prune(pairs []pair.Pair, k int) []pair.Pair {
	if k <= 0 {
		k = 4
	}
	afterFirst := pr.pruneOneWay(pairs, k, true)
	return pr.pruneOneWay(afterFirst, k, false)
}

// pruneOneWay is PruningInOneWay from Algorithm 1. bySide1 selects whether
// blocks group pairs sharing the K1 entity (min_rank_1) or the K2 entity
// (min_rank_2).
func (pr *Pruner) pruneOneWay(pairs []pair.Pair, k int, bySide1 bool) []pair.Pair {
	blocks := make(map[kb.EntityID][]pair.Pair)
	for _, p := range pairs {
		key := p.U1
		if !bySide1 {
			key = p.U2
		}
		blocks[key] = append(blocks[key], p)
	}
	kept := make(map[pair.Pair]bool, len(pairs))
	for _, block := range blocks {
		if len(block) <= k {
			for _, p := range block {
				kept[p] = true
			}
			continue
		}
		retained := pr.pruneBlock(block, k)
		for _, p := range retained {
			kept[p] = true
		}
	}
	out := make([]pair.Pair, 0, len(pairs))
	for _, p := range pairs {
		if kept[p] {
			out = append(out, p)
		}
	}
	return out
}

// pruneBlock prunes a single block B: any pair with min_rank ≥ k is
// removed, and (per the paper) every pair dominated by a removed pair is
// removed too, since its min_rank must also be ≥ k.
func (pr *Pruner) pruneBlock(block []pair.Pair, k int) []pair.Pair {
	n := len(block)
	vecs := make([]Vector, n)
	for i, p := range block {
		vecs[i] = pr.vectors[p]
	}
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		if removed[i] {
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
			removed[i] = true
			// Everything dominated by vecs[i] has rank ≥ rank(i) ≥ k.
			for j := 0; j < n; j++ {
				if !removed[j] && vecs[i].StrictlyDominates(vecs[j]) {
					removed[j] = true
				}
			}
		}
	}
	var out []pair.Pair
	for i, p := range block {
		if !removed[i] {
			out = append(out, p)
		}
	}
	return out
}
