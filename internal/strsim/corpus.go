package strsim

import (
	"strconv"
	"strings"

	"repro/internal/par"
)

// LitID is a dense interned literal identifier within one Corpus.
type LitID uint32

// Corpus interns attribute-value literals and caches everything
// LiteralSimilarity would otherwise recompute per comparison: the literal's
// kind, its parsed numeric/date value, and its sorted dense-token-ID set.
// The batched pre-pipeline interns each distinct literal once per KB pair
// and then scores millions of literal comparisons on integers and cached
// floats. Corpus similarities are byte-identical to the string-based
// functions: interning is a bijection, so every set size, intersection
// size and parsed value — the only inputs to the float math — is the same.
//
// Literals and their tokens go through two Interners, both cutting their
// texts in one Workspace. InternAll fans its work out over a Runner: the
// literal interning, and then classifying, parsing and tokenizing each
// new literal. A Corpus is safe for concurrent reads once InternAll
// returns; InternAll calls must not race with anything.
type Corpus struct {
	lits, words Interner
	ws          *Workspace
	kinds       []LiteralKind
	nums        []float64 // parsed value for KindNumber/KindDate literals
	// literal id's token set is toks[tokEnd[id]:tokEnd[id+1]]
	tokEnd []int32
	toks   []uint32
}

// NewCorpus returns an empty corpus that cuts its texts in ws; nil gives
// each InternAll call a Workspace of its own.
func NewCorpus(ws *Workspace) *Corpus { return &Corpus{ws: ws} }

// InternAll interns every literal in vals, returning their IDs. A
// literal seen for the first time is classified, parsed and tokenized —
// in parallel when r is set; the IDs do not depend on r.
func (c *Corpus) InternAll(r par.Runner, vals []string) []LitID {
	old, ws := len(c.kinds), c.ws
	if ws == nil {
		ws = new(Workspace)
	}
	_, ids := c.lits.Sets(ws, r, len(vals), func(i int) string { return vals[i] }, false)
	n, out := c.lits.Len(), make([]LitID, len(vals))
	fresh := make([]int32, n-old) // where in vals each new literal is, by ID − old
	for i, id := range ids {
		if out[i] = LitID(id); int(id) >= old {
			fresh[int(id)-old] = int32(i)
		}
	}
	c.kinds = append(c.kinds, make([]LiteralKind, n-old)...)
	c.nums = append(c.nums, make([]float64, n-old)...)

	grains := par.Grains(r, len(fresh), internGrain)
	par.RunAll(r, len(grains), func(g int) {
		for id := old + grains[g].Lo; id < old+grains[g].Hi; id++ {
			lit := strings.TrimSpace(vals[fresh[id-old]])
			switch c.kinds[id] = Classify(lit); c.kinds[id] {
			case KindNumber:
				c.nums[id], _ = strconv.ParseFloat(lit, 64)
			case KindDate:
				c.nums[id], _ = parseDate(lit)
			}
		}
	})
	// A literal's token set is TokenSet(lit) by ID instead of by string, a
	// different permutation of the same set, so every intersection size —
	// the only thing downstream math reads — is unchanged.
	start, toks := c.words.Sets(ws, r, len(fresh), func(i int) string { return vals[fresh[i]] }, true)
	if old == 0 {
		c.tokEnd, c.toks = start, toks
	} else {
		for _, end := range start[1:] {
			c.tokEnd = append(c.tokEnd, int32(len(c.toks))+end)
		}
		c.toks = append(c.toks, toks...)
	}
	return out
}

// tokSet returns literal id's token set, read-only.
func (c *Corpus) tokSet(id LitID) []uint32 { return c.toks[c.tokEnd[id]:c.tokEnd[id+1]] }

// LiteralSim is LiteralSimilarity over interned literals: same-kind
// numbers and dates compare by maximum percentage difference on the cached
// parsed values; everything else compares by Jaccard over the cached token
// sets. Byte-identical to LiteralSimilarity on the original strings.
//
//remp:hotpath
func (c *Corpus) LiteralSim(a, b LitID) float64 {
	ka, kb := c.kinds[a], c.kinds[b]
	if ka == kb && ka != KindString {
		return NumberSimilarity(c.nums[a], c.nums[b])
	}
	return JaccardIDs(c.tokSet(a), c.tokSet(b))
}

// SimL is the extended Jaccard similarity over interned literal sets,
// byte-identical to SimL on the original value slices (same greedy
// pairing order, same tie-breaking, same early exit on an exact match).
// The used scratch comes from the caller's MatchScratch (one per worker);
// after warm-up the call is allocation-free.
//
//remp:hotpath
func (c *Corpus) SimL(va, vb []LitID, threshold float64, sc *MatchScratch) float64 {
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	used := sc.boolRow(len(vb))
	matched := 0
	for _, la := range va {
		best, bestSim := -1, threshold
		for j, lb := range vb {
			if used[j] {
				continue
			}
			if s := c.LiteralSim(la, lb); s >= bestSim {
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
