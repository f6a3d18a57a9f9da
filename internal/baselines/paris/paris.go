// Package paris reimplements the decision core of PARIS (Suchanek et al.,
// VLDB 2011): probabilistic alignment by fixpoint iteration. Match
// probabilities start from the seeds, and each round every candidate
// pair's probability is recomputed from its neighbors' probabilities
// weighted by per-relationship-pair consistency (PARIS's functionality ×
// subrelation terms collapse to exactly this under our KB model), with a
// noisy-or combination and a greedy 1:1 selection at the end. No crowd is
// involved, so errors accumulate across rounds — the behavior Table VI
// contrasts with Remp.
package paris

import (
	"sort"

	"repro/internal/baselines"
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// Options tunes the fixpoint iteration.
type Options struct {
	Rounds    int     // default 8
	Threshold float64 // acceptance threshold, default 0.5
}

// Method is the PARIS baseline.
type Method struct {
	Opts Options
}

// Name implements baselines.Method.
func (Method) Name() string { return "PARIS" }

// Run implements baselines.Method.
func (m Method) Run(in *baselines.Input) *baselines.Output {
	opts := m.Opts
	if opts.Rounds <= 0 {
		opts.Rounds = 8
	}
	if opts.Threshold <= 0 {
		opts.Threshold = 0.5
	}
	g := ergraph.Build(in.K1, in.K2, in.Retained)

	// PARIS estimates its relation-alignment terms from instance pairs of
	// high equivalence probability — which at bootstrap time includes
	// literal-identical pairs, not only the seeds — and refines them as
	// the fixpoint iteration finds new matches.
	seedSet := pair.NewSet(in.Seeds...)
	evidence := seedSet.Clone()
	for _, p := range in.Retained {
		if in.Priors[p] >= 0.8 {
			evidence.Add(p)
		}
	}
	fitCons := func(matched pair.Set) map[ergraph.RelPair]consistency.Estimate {
		support := matched.Clone()
		for e := range evidence {
			support.Add(e)
		}
		cons := map[ergraph.RelPair]consistency.Estimate{}
		for _, label := range g.Labels() {
			var obs []consistency.Observation
			for s := range support {
				n1, n2 := valueSets(in, label, s)
				if len(n1) == 0 && len(n2) == 0 {
					continue
				}
				known := 0
				for _, v1 := range n1 {
					for _, v2 := range n2 {
						if support.Has(pair.Pair{U1: v1, U2: v2}) {
							known++
							break
						}
					}
				}
				obs = append(obs, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: known})
			}
			cons[label] = consistency.FromCounts(obs, consistency.DefaultOptions())
		}
		return cons
	}

	prob := make(map[pair.Pair]float64, len(in.Retained))
	for _, s := range in.Seeds {
		prob[s] = 1
	}
	cons := fitCons(seedSet)

	verts, labels := g.Vertices(), g.Labels()
	for round := 0; round < opts.Rounds; round++ {
		next := make(map[pair.Pair]float64, len(prob))
		for s := range prob {
			next[s] = prob[s]
		}
		for _, s := range in.Seeds {
			next[s] = 1
		}
		for i, v := range verts {
			if seedSet.Has(v) {
				continue
			}
			// Noisy-or over incoming evidence, in in-row order: an in-edge
			// from a probable match u via label L contributes ε(L)·P(u).
			acc := 1.0
			inLabels := g.InLabelsAt(i)
			for k, j := range g.InIndexesAt(i) {
				pu := prob[verts[j]]
				if pu <= 0 {
					continue
				}
				est := cons[labels[inLabels[k]]]
				eps := est.Eps1
				if est.Eps2 < eps {
					eps = est.Eps2
				}
				acc *= 1 - eps*pu
			}
			support := 1 - acc
			if support > 0 {
				next[v] = support
			}
		}
		prob = next
		// Refine relation alignment with this round's confident matches.
		matched := pair.Set{}
		for p, s := range prob {
			if s >= opts.Threshold {
				matched.Add(p)
			}
		}
		cons = fitCons(matched)
	}

	// Greedy 1:1 acceptance by descending probability.
	type scored struct {
		p pair.Pair
		s float64
	}
	var order []scored
	for p, s := range prob {
		if s >= opts.Threshold {
			order = append(order, scored{p, s})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].s != order[j].s {
			return order[i].s > order[j].s
		}
		return order[i].p.Less(order[j].p)
	})
	out := &baselines.Output{Matches: pair.Set{}}
	used1 := map[kb.EntityID]bool{}
	used2 := map[kb.EntityID]bool{}
	for _, sc := range order {
		if used1[sc.p.U1] || used2[sc.p.U2] {
			continue
		}
		used1[sc.p.U1] = true
		used2[sc.p.U2] = true
		out.Matches.Add(sc.p)
	}
	return out
}

// valueSets returns the label-direction-appropriate value sets of a seed
// match.
func valueSets(in *baselines.Input, label ergraph.RelPair, s pair.Pair) (n1, n2 []kb.EntityID) {
	if label.Inverse {
		return in.K1.In(s.U1, label.R1), in.K2.In(s.U2, label.R2)
	}
	return in.K1.Out(s.U1, label.R1), in.K2.Out(s.U2, label.R2)
}
