package strsim

import (
	"slices"
	"strconv"
	"strings"
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
// A Corpus is safe for concurrent reads once interning finishes; Intern
// calls must not race with anything.
type Corpus struct {
	idx    map[string]LitID
	kinds  []LiteralKind
	nums   []float64 // parsed value for KindNumber/KindDate literals
	toks   [][]uint32
	tokIdx map[string]uint32
	// buf and ends are internTokens' AppendWords scratch.
	buf  []byte
	ends []int32
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{idx: make(map[string]LitID), tokIdx: make(map[string]uint32)}
}

// Intern returns the ID of lit, classifying, parsing and tokenizing it on
// first sight.
func (c *Corpus) Intern(lit string) LitID {
	if id, ok := c.idx[lit]; ok {
		return id
	}
	id := LitID(len(c.kinds))
	c.idx[lit] = id
	kind := Classify(lit)
	var num float64
	switch kind {
	case KindNumber:
		num, _ = strconv.ParseFloat(strings.TrimSpace(lit), 64)
	case KindDate:
		num, _ = parseDate(strings.TrimSpace(lit))
	}
	c.kinds = append(c.kinds, kind)
	c.nums = append(c.nums, num)
	c.toks = append(c.toks, c.internTokens(lit))
	return id
}

// InternAll interns every literal in vals, returning their IDs.
func (c *Corpus) InternAll(vals []string) []LitID {
	if len(vals) == 0 {
		return nil
	}
	out := make([]LitID, len(vals))
	for i, v := range vals {
		out[i] = c.Intern(v)
	}
	return out
}

// Len returns the number of interned literals.
func (c *Corpus) Len() int { return len(c.kinds) }

// internTokens maps the tokens of lit through the corpus token dictionary
// and returns their distinct IDs sorted ascending: TokenSet(lit) by ID
// instead of by string, a different permutation of the same set, so every
// intersection size — the only thing downstream math reads — is
// unchanged. Tokens are looked up as bytes in the corpus's scratch; only a
// token seen for the first time allocates its key.
func (c *Corpus) internTokens(lit string) []uint32 {
	c.buf, c.ends = AppendWords(c.buf[:0], c.ends[:0], lit, true)
	if len(c.ends) == 0 {
		return nil
	}
	ids := make([]uint32, len(c.ends))
	from := int32(0)
	for i, e := range c.ends {
		tok := c.buf[from:e]
		from = e
		id, ok := c.tokIdx[string(tok)]
		if !ok {
			id = uint32(len(c.tokIdx))
			c.tokIdx[string(tok)] = id
		}
		ids[i] = id
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

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
	return JaccardIDs(c.toks[a], c.toks[b])
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
