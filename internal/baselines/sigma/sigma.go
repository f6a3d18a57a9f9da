// Package sigma reimplements the decision core of SiGMa (Lacoste-Julien
// et al., KDD 2013): simple greedy matching. A priority queue is seeded
// with the known matches' neighborhoods; the best-scoring candidate —
// score = string similarity blended with the fraction of already-matched
// graph neighbors — is accepted greedily under a 1:1 constraint, and each
// acceptance raises the structural score of its neighbor candidates. No
// crowd, no retraction: a wrong early acceptance propagates, the error
// accumulation the paper contrasts with Remp.
package sigma

import (
	"container/heap"

	"repro/internal/baselines"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// Options tunes the greedy matcher.
type Options struct {
	// Alpha blends label similarity (weight Alpha) against structural
	// neighbor support (weight 1−Alpha). SiGMa's default is 0.5 here.
	Alpha float64
	// Threshold is the minimal blended score to accept a candidate.
	Threshold float64
}

// Method is the SiGMa baseline.
type Method struct {
	Opts Options
}

// Name implements baselines.Method.
func (Method) Name() string { return "SiGMa" }

// Run implements baselines.Method.
func (m Method) Run(in *baselines.Input) *baselines.Output {
	opts := m.Opts
	if opts.Alpha <= 0 {
		opts.Alpha = 0.5
	}
	if opts.Threshold <= 0 {
		opts.Threshold = 0.35
	}
	g := ergraph.Build(in.K1, in.K2, in.Retained)

	matched := pair.NewSet(in.Seeds...)
	used1 := map[kb.EntityID]bool{}
	used2 := map[kb.EntityID]bool{}
	for _, s := range in.Seeds {
		used1[s.U1] = true
		used2[s.U2] = true
	}

	// neighbors visits p's graph neighbors, one visit per edge: out-row
	// first, then in-row. A pair outside the graph has none.
	verts := g.Vertices()
	neighbors := func(p pair.Pair, visit func(pair.Pair)) {
		i := g.IndexOf(p)
		if i < 0 {
			return
		}
		for _, j := range g.OutIndexesAt(i) {
			visit(verts[j])
		}
		for _, j := range g.InIndexesAt(i) {
			visit(verts[j])
		}
	}
	// structural support: fraction of a vertex's graph neighbors already
	// matched.
	support := func(p pair.Pair) float64 {
		total, hits := 0, 0
		neighbors(p, func(q pair.Pair) {
			total++
			if matched.Has(q) {
				hits++
			}
		})
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	score := func(p pair.Pair) float64 {
		return opts.Alpha*in.Priors[p] + (1-opts.Alpha)*support(p)
	}

	// SiGMa's agenda is seeded with the *neighbors of the seed matches*
	// and grows outward as matches are accepted — candidates outside the
	// connected region of the seeds are never considered, which is exactly
	// why SiGMa collapses on datasets whose matches are mostly isolated
	// (the paper's D-Y rows of Table VI).
	h := &agenda{}
	push := func(p pair.Pair) {
		if matched.Has(p) || used1[p.U1] || used2[p.U2] {
			return
		}
		heap.Push(h, item{p: p, score: score(p)})
	}
	for _, s := range in.Seeds {
		neighbors(s, push)
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if used1[it.p.U1] || used2[it.p.U2] {
			continue
		}
		fresh := score(it.p)
		if fresh < opts.Threshold {
			// Structural support only grows, and candidates whose support
			// grew were re-pushed with current scores below, so a stale
			// entry under threshold can simply be skipped.
			continue
		}
		matched.Add(it.p)
		used1[it.p.U1] = true
		used2[it.p.U2] = true
		// An acceptance raises the structural support of its graph
		// neighbors and admits them to the agenda (duplicates are harmless
		// — used entries are skipped on pop).
		neighbors(it.p, push)
	}

	return &baselines.Output{Matches: matched}
}

type item struct {
	p     pair.Pair
	score float64
}

type agenda []item

func (a agenda) Len() int { return len(a) }
func (a agenda) Less(i, j int) bool {
	if a[i].score != a[j].score {
		return a[i].score > a[j].score
	}
	return a[i].p.Less(a[j].p)
}
func (a agenda) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *agenda) Push(x any)   { *a = append(*a, x.(item)) }
func (a *agenda) Pop() any {
	old := *a
	n := len(old)
	x := old[n-1]
	*a = old[:n-1]
	return x
}
