package strsim

import (
	"strconv"
	"strings"

	"repro/internal/kb"
	"repro/internal/par"
)

// Corpus caches, for the attribute values of a KB pair that a pass reads,
// everything LiteralSimilarity would otherwise recompute per comparison:
// the literal's kind, its parsed numeric/date value, and its sorted
// dense-token-ID set. It is indexed by KB side — 0 for K1, 1 for K2 — and
// the KB's own literal ID, so a value set is kb.AttrLits read as it is.
// Corpus similarities are byte-identical to the string-based functions:
// token interning is a bijection, so every set size, intersection size
// and parsed value — the only inputs to the float math — is the same.
//
// Add marks the literals a pass will read; Load classifies, parses and
// tokenizes the ones marked since the last Load, each once, fanning out
// over a Runner. The tokens of both sides go through one Interner, cut in
// one Workspace, so one Corpus serves every similarity stage of a Prepare
// and no literal is read twice. A Corpus is safe for concurrent reads
// once Load returns; Add and Load calls must not race with anything but
// an Add on the other side.
type Corpus struct {
	kbs   [2]*kb.KB
	lits  [2][]literal  // by KB literal ID
	fresh [2][]kb.LitID // marked since the last Load
	words Interner
	ws    *Workspace
	toks  []uint32 // literal l's token set is toks[l.lo:l.hi]
}

// literal is what a Corpus keeps of one KB literal.
type literal struct {
	num    float64 // parsed value of a KindNumber or KindDate literal
	lo, hi int32
	kind   LiteralKind
	marked bool
}

// NewCorpus returns an empty corpus over the literals of k1 (side 0) and
// k2 (side 1) that cuts their words in ws; nil gives each Load call a
// Workspace of its own.
func NewCorpus(k1, k2 *kb.KB, ws *Workspace) *Corpus {
	return &Corpus{
		kbs:  [2]*kb.KB{k1, k2},
		lits: [2][]literal{make([]literal, k1.NumLiterals()), make([]literal, k2.NumLiterals())},
		ws:   ws,
	}
}

// KBs returns the KB pair the corpus reads.
func (c *Corpus) KBs() (k1, k2 *kb.KB) { return c.kbs[0], c.kbs[1] }

// Add marks the literals ids of the given side to be read; the next Load
// reads those it has not read before.
func (c *Corpus) Add(side int, ids []kb.LitID) {
	lits := c.lits[side]
	for _, id := range ids {
		if !lits[id].marked {
			lits[id].marked = true
			c.fresh[side] = append(c.fresh[side], id)
		}
	}
}

// Load classifies, parses and tokenizes every literal marked since the
// last call — in parallel when r is set; the result does not depend on r.
func (c *Corpus) Load(r par.Runner) {
	n0, n := len(c.fresh[0]), len(c.fresh[0])+len(c.fresh[1])
	at := func(i int) (*literal, string) {
		side := 0
		if i >= n0 {
			side, i = 1, i-n0
		}
		id := c.fresh[side][i]
		return &c.lits[side][id], c.kbs[side].Literal(id)
	}
	grains := par.Grains(r, n, internGrain)
	par.RunAll(r, len(grains), func(g int) {
		for i := grains[g].Lo; i < grains[g].Hi; i++ {
			l, text := at(i)
			lit := strings.TrimSpace(text)
			switch l.kind = Classify(lit); l.kind {
			case KindNumber:
				l.num, _ = strconv.ParseFloat(lit, 64)
			case KindDate:
				l.num, _ = parseDate(lit)
			}
		}
	})
	// A literal's token set is TokenSet(lit) by ID instead of by string, a
	// different permutation of the same set, so every intersection size —
	// the only thing downstream math reads — is unchanged.
	start, toks := c.words.Sets(c.ws, r, n, func(i int) string { _, text := at(i); return text })
	base := int32(len(c.toks))
	for i := range n {
		l, _ := at(i)
		l.lo, l.hi = base+start[i], base+start[i+1]
	}
	if base == 0 {
		c.toks = toks
	} else {
		c.toks = append(c.toks, toks...)
	}
	c.fresh = [2][]kb.LitID{c.fresh[0][:0], c.fresh[1][:0]}
}

// sim is LiteralSimilarity over two loaded literals, byte-identical to it
// on their strings: same-kind numbers and dates compare by maximum
// percentage difference on the parsed values; everything else compares by
// Jaccard over the token sets.
//
//remp:hotpath
func (c *Corpus) sim(a, b *literal) float64 {
	if a.kind == b.kind && a.kind != KindString {
		return NumberSimilarity(a.num, b.num)
	}
	return JaccardIDs(c.toks[a.lo:a.hi], c.toks[b.lo:b.hi])
}

// SimL is the extended Jaccard similarity between K1's literal set va and
// K2's literal set vb, all loaded: byte-identical to SimL on the value
// strings (same greedy pairing order, same tie-breaking, same early exit
// on an exact match). The used scratch comes from the caller's
// MatchScratch (one per worker); after warm-up the call is
// allocation-free.
//
//remp:hotpath
func (c *Corpus) SimL(va, vb []kb.LitID, threshold float64, sc *MatchScratch) float64 {
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	used := sc.boolRow(len(vb))
	lits1, lits2 := c.lits[0], c.lits[1]
	matched := 0
	for _, a := range va {
		la := &lits1[a]
		best, bestSim := -1, threshold
		for j, b := range vb {
			if used[j] {
				continue
			}
			if s := c.sim(la, &lits2[b]); s >= bestSim {
				best, bestSim = j, s
				if s == 1 {
					break
				}
			}
		}
		if best >= 0 {
			used[best] = true
			matched++
		}
	}
	union := len(va) + len(vb) - matched
	if union == 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// MatchScratch holds the pooled used-flags SimL works in. The zero value
// is ready; reuse one scratch per worker. Not safe for concurrent use.
type MatchScratch struct {
	used []bool
}

//remp:hotpath
func (sc *MatchScratch) boolRow(n int) []bool {
	if cap(sc.used) < n {
		sc.used = make([]bool, n)
	}
	sc.used = sc.used[:n]
	for i := range sc.used {
		sc.used[i] = false
	}
	return sc.used
}
