// Package selection implements multiple questions selection (§VI): the
// benefit of a question set Q is the expected number of matches inferable
// from its labels (Eq. 15–16), a monotone submodular function maximized
// greedily with lazy evaluation (Algorithm 3, the classic (1−1/e)
// guarantee). Greedy and Figure 5's two heuristics, MaxInf and MaxPr,
// implement the one Strategy interface: ranked selection.
package selection

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/pair"
)

// Candidate describes one candidate question: its pair, its current match
// probability Pr[m_q], and inferred(q) — the vertex indexes it would
// resolve if labeled as a match (including itself).
type Candidate struct {
	Pair     pair.Pair
	Prob     float64
	Inferred []int
}

// Pick is one ranked selection: a candidate index plus the score the
// strategy committed it at — the marginal benefit for Greedy, the sort key
// for the heuristics.
type Pick struct {
	Index int
	Score float64
}

// Strategy selects up to mu questions from candidates, highest priority
// first, each with its commit score. Two properties are the contract the
// loop's shard merge rests on. Within one call scores are non-increasing
// (benefit is submodular; the heuristics sort). And the selection over a
// disjoint union of candidate sets equals the score-ordered merge of the
// per-set selections: a score depends only on a candidate and the
// previously chosen candidates whose Inferred sets overlap it, and inferred
// sets never cross shards.
//
// A third is the one a cluster's gather rests on: a selection is a prefix
// of any larger one. For every k ≤ m, SelectRanked(c, k) equals the first
// k picks of SelectRanked(c, m) — all of them when it holds fewer — since
// Greedy stops after its k-th commit and the heuristics sort fully and
// then truncate. So a shard ranked once for the largest batch answers
// every smaller one.
type Strategy interface {
	// Name is the strategy's name in options and in an encoded shard;
	// ByName inverts it.
	Name() string
	SelectRanked(cands []Candidate, mu int) []Pick
}

// ByName returns the strategy of the given name: "greedy", "maxinf" or
// "maxpr".
func ByName(name string) (Strategy, error) {
	for _, s := range []Strategy{Greedy{}, MaxInf{}, MaxPr{}} {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("selection: unknown strategy %q", name)
}

// Greedy is Algorithm 3: lazy greedy maximization of benefit(Q).
type Greedy struct{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// benefitState tracks bp(Q) = Pr[p ∈ inferred(H) | Q] per vertex (Eq. 15)
// so that a marginal gain evaluation is O(|inferred(q)|). bp is a dense
// epoch-stamped slice keyed by vertex index — a stale stamp reads as
// bp = 0 — so gain and add are pure array walks with no hashing, and the
// pooled state is reused across selection calls without clearing.
type benefitState struct {
	bp      []float64
	stamp   []uint32
	epoch   uint32
	touched []int32  // vertices with a live bp entry, in first-touch order
	pq      gainHeap // lazy-greedy priority queue, reused across calls
}

var benefitPool = sync.Pool{New: func() any { return &benefitState{} }}

// getBenefitState returns a pooled state, emptied. Its dense arrays are
// sized by the picks: add grows them to the largest index a pick touches,
// and a vertex past them reads bp = 0, so no candidate list is walked to
// size them.
func getBenefitState() *benefitState {
	s := benefitPool.Get().(*benefitState)
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	s.pq = s.pq[:0]
	return s
}

func putBenefitState(s *benefitState) { benefitPool.Put(s) }

//remp:hotpath
func (s *benefitState) at(p int) float64 {
	if p < len(s.stamp) && s.stamp[p] == s.epoch {
		return s.bp[p]
	}
	return 0
}

//remp:hotpath
func (s *benefitState) gain(c Candidate) float64 {
	g := 0.0
	for _, p := range c.Inferred {
		g += c.Prob * (1 - s.at(p))
	}
	return g
}

// openingGain is gain before any pick: every bp is 0, so each term
// c.Prob·(1 − 0) is c.Prob itself and the sum is c.Prob added
// len(c.Inferred) times in the same order, bit for bit what gain returns,
// with no state read.
//
//remp:hotpath
func openingGain(c Candidate) float64 {
	g := 0.0
	for range c.Inferred {
		g += c.Prob
	}
	return g
}

// add commits c: bp(Q ∪ {c}) over c's inferred set. The dense arrays grow
// (keeping their entries) when c names a vertex past them.
//
//remp:hotpath
func (s *benefitState) add(c Candidate) {
	for _, p := range c.Inferred {
		if p >= len(s.stamp) {
			s.grow(p + 1)
		}
		b := s.at(p)
		if s.stamp[p] != s.epoch {
			s.stamp[p] = s.epoch
			s.touched = append(s.touched, int32(p))
		}
		// bp(Q ∪ {q}) = bp(Q) + Pr[m_q](1 − bp(Q)).
		s.bp[p] = b + c.Prob*(1-b)
	}
}

// grow sizes the dense arrays for vertex indexes below n, at least
// doubling them so a call's picks grow them a logarithmic number of times.
func (s *benefitState) grow(n int) {
	if len(s.stamp) >= n {
		return
	}
	n = max(n, 2*len(s.stamp))
	bp, stamp := make([]float64, n), make([]uint32, n)
	copy(bp, s.bp)
	copy(stamp, s.stamp)
	s.bp, s.stamp = bp, stamp
}

// Select is SelectRanked without the scores.
func (g Greedy) Select(cands []Candidate, mu int) []int {
	picks := g.SelectRanked(cands, mu)
	out := make([]int, len(picks))
	for i, p := range picks {
		out[i] = p.Index
	}
	return out
}

// SelectRanked implements Strategy: lazy greedy, returning the marginal
// benefit each question was committed at. The only allocation in
// the steady state is the returned picks: the priority queue lives in the
// pooled benefit state and amortizes across calls like bp/stamp do.
//
//remp:hotpath
func (Greedy) SelectRanked(cands []Candidate, mu int) []Pick {
	if mu <= 0 || len(cands) == 0 {
		return nil
	}
	state := getBenefitState()
	defer putBenefitState(state)
	// Priority queue of (index, cached gain); lazy evaluation re-checks the
	// top element against the current state before committing. Nothing is
	// picked yet, so the opening gains read no state.
	pq := state.pq
	for i, c := range cands {
		pq = append(pq, gainItem{idx: int32(i), gain: openingGain(c)})
	}
	pq.init()

	var out []Pick
	for len(out) < mu && len(pq) > 0 {
		item := pq.popMin()
		// Recompute the gain under the current Q (it can only shrink —
		// submodularity).
		fresh := state.gain(cands[item.idx])
		if fresh <= 0 {
			// This candidate is fully covered; drop it and keep scanning —
			// other candidates may still carry positive gain.
			continue
		}
		if len(pq) > 0 && fresh < pq[0].gain {
			item.gain = fresh
			pq.push(item)
			continue
		}
		state.add(cands[item.idx])
		out = append(out, Pick{Index: int(item.idx), Score: fresh})
	}
	state.pq = pq // hand any growth back to the pooled state
	return out
}

// MaxInf picks the questions with the largest inferred sets, ignoring
// match probability (Figure 5 baseline).
type MaxInf struct{}

// Name implements Strategy.
func (MaxInf) Name() string { return "maxinf" }

// Select returns the chosen candidate indexes, highest priority first.
func (MaxInf) Select(cands []Candidate, mu int) []int {
	return topBy(cands, mu, func(c Candidate) float64 { return float64(len(c.Inferred)) })
}

// SelectRanked implements Strategy with the inferred-set size as the score.
func (m MaxInf) SelectRanked(cands []Candidate, mu int) []Pick {
	return ranked(cands, m.Select(cands, mu), func(c Candidate) float64 { return float64(len(c.Inferred)) })
}

// MaxPr picks the questions with the highest match probability, ignoring
// inference power (Figure 5 baseline).
type MaxPr struct{}

// Name implements Strategy.
func (MaxPr) Name() string { return "maxpr" }

// Select returns the chosen candidate indexes, highest priority first.
func (MaxPr) Select(cands []Candidate, mu int) []int {
	return topBy(cands, mu, func(c Candidate) float64 { return c.Prob })
}

// SelectRanked implements Strategy with the match probability as the score.
func (m MaxPr) SelectRanked(cands []Candidate, mu int) []Pick {
	return ranked(cands, m.Select(cands, mu), func(c Candidate) float64 { return c.Prob })
}

// ranked annotates a Select result with its sort scores.
func ranked(cands []Candidate, idxs []int, score func(Candidate) float64) []Pick {
	out := make([]Pick, len(idxs))
	for i, idx := range idxs {
		out[i] = Pick{Index: idx, Score: score(cands[idx])}
	}
	return out
}

func topBy(cands []Candidate, mu int, score func(Candidate) float64) []int {
	if mu <= 0 || len(cands) == 0 {
		return nil
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := score(cands[idx[a]]), score(cands[idx[b]])
		if sa != sb {
			return sa > sb
		}
		return cands[idx[a]].Pair.Less(cands[idx[b]].Pair)
	})
	if mu > len(idx) {
		mu = len(idx)
	}
	return idx[:mu]
}

// gainItem and gainHeap implement the lazy-greedy priority queue as a
// plain slice-backed binary heap of value types: (gain desc, index asc) is
// a total order, so the pop sequence is deterministic, and nothing boxes
// through container/heap's interface.
type gainItem struct {
	idx  int32
	gain float64
}

type gainHeap []gainItem

// before reports whether a outranks b.
//
//remp:hotpath
func (gainHeap) before(a, b gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.idx < b.idx
}

//remp:hotpath
func (h gainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

//remp:hotpath
func (h *gainHeap) push(x gainItem) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

//remp:hotpath
func (h *gainHeap) popMin() gainItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	(*h).siftDown(0)
	return top
}

//remp:hotpath
func (h gainHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.before(h[l], h[m]) {
			m = l
		}
		if r < len(h) && h.before(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
