// Package pair defines entity pairs across two KBs, match sets, gold
// standards and the evaluation metrics used throughout the paper:
// precision / recall / F1 (§III-A), reduction ratio and pair completeness
// (§VIII-B, Table V).
package pair

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/kb"
)

// Pair is an entity pair (u1 ∈ K1, u2 ∈ K2), the vertex type of the ER
// graph and the unit of questions and matches.
type Pair struct {
	U1 kb.EntityID
	U2 kb.EntityID
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.U1, p.U2) }

// Less orders pairs lexicographically; used to make iteration orders
// deterministic.
func (p Pair) Less(q Pair) bool {
	if p.U1 != q.U1 {
		return p.U1 < q.U1
	}
	return p.U2 < q.U2
}

// Compare is Less as a three-way comparison: -1, 0 or +1.
func (p Pair) Compare(q Pair) int {
	return cmp.Or(cmp.Compare(p.U1, q.U1), cmp.Compare(p.U2, q.U2))
}

// GroupByEntity groups the positions of pairs by their K1 entity (side1)
// or their K2 entity: the pairs of entity e sit at positions
// order[start[e]:start[e+1]], in input order (a stable counting sort).
// start covers the entity IDs up to the largest one present.
func GroupByEntity(pairs []Pair, side1 bool) (start, order []int32) {
	key := func(p Pair) kb.EntityID {
		if side1 {
			return p.U1
		}
		return p.U2
	}
	n := 0
	for _, p := range pairs {
		if e := int(key(p)) + 1; e > n {
			n = e
		}
	}
	// Entity e's count goes to start[e+2], so that after the prefix sum
	// start[e+1] is where e's pairs begin; placing them moves it to where
	// they end, which is where e+1's begin.
	start = make([]int32, n+2)
	for _, p := range pairs {
		start[key(p)+2]++
	}
	for e := 2; e < len(start); e++ {
		start[e] += start[e-1]
	}
	order = make([]int32, len(pairs))
	for i, p := range pairs {
		order[start[key(p)+1]] = int32(i)
		start[key(p)+1]++
	}
	return start[:n+1], order
}

// Set is a set of entity pairs.
type Set map[Pair]struct{}

// NewSet returns a Set containing the given pairs.
func NewSet(pairs ...Pair) Set {
	s := make(Set, len(pairs))
	for _, p := range pairs {
		s[p] = struct{}{}
	}
	return s
}

// Add inserts p.
func (s Set) Add(p Pair) { s[p] = struct{}{} }

// Has reports membership.
func (s Set) Has(p Pair) bool {
	_, ok := s[p]
	return ok
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Sorted returns the pairs in deterministic lexicographic order.
func (s Set) Sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for p := range s {
		out[p] = struct{}{}
	}
	return out
}

// Gold is a reference alignment (gold standard): the set of true matches
// between two KBs.
type Gold struct {
	matches Set
}

// NewGold builds a gold standard from true matches.
func NewGold(matches []Pair) *Gold {
	return &Gold{matches: NewSet(matches...)}
}

// IsMatch reports whether p is a true match.
func (g *Gold) IsMatch(p Pair) bool { return g.matches.Has(p) }

// Size returns the number of true matches.
func (g *Gold) Size() int { return g.matches.Len() }

// Matches returns the true matches in deterministic order.
func (g *Gold) Matches() []Pair { return g.matches.Sorted() }

// PRF holds precision, recall and F1-score, and the counts they come
// from. Its JSON form, the server's result score, carries the three
// scores only.
type PRF struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	TP        int     `json:"-"`
	FP        int     `json:"-"`
	FN        int     `json:"-"`
}

// Evaluate compares predicted matches against the gold standard.
func Evaluate(predicted Set, gold *Gold) PRF {
	tp := 0
	for p := range predicted {
		if gold.IsMatch(p) {
			tp++
		}
	}
	fp := predicted.Len() - tp
	fn := gold.Size() - tp
	return FromCounts(tp, fp, fn)
}

// FromCounts builds PRF from raw counts.
func FromCounts(tp, fp, fn int) PRF {
	var precision, recall, f1 float64
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return PRF{Precision: precision, Recall: recall, F1: f1, TP: tp, FP: fp, FN: fn}
}

// ReductionRatio is the proportion of candidates pruned: 1 − |after|/|before|
// (Table V's RR column).
func ReductionRatio(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return 1 - float64(after)/float64(before)
}

// PairCompleteness is the proportion of true matches preserved in a
// candidate set (Table V's PC column).
func PairCompleteness(candidates Set, gold *Gold) float64 {
	if gold.Size() == 0 {
		return 0
	}
	kept := 0
	for _, m := range gold.Matches() {
		if candidates.Has(m) {
			kept++
		}
	}
	return float64(kept) / float64(gold.Size())
}
