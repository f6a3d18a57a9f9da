package core

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/propagation"
)

// PropagateFromSeeds runs the Table VI configuration: no crowdsourcing, a
// sampled portion of ground-truth matches acts as seeds, consistency is
// re-fitted from those seeds, and propagation iterates to a fixpoint (each
// round's inferred matches join the seed set), exactly how the collective
// baselines PARIS and SiGMa consume their seeds. The isolated-pair
// classifier is intentionally skipped (the paper ignores it here "to
// assess the real propagation capability").
func (p *Prepared) PropagateFromSeeds(seeds []pair.Pair) pair.Set {
	cfg := p.Cfg
	seedSet := pair.NewSet(seeds...)

	// Consistency from the seeds themselves: with ground-truth matches the
	// matched-value counts are observed, so the direct estimator applies.
	cons := p.fitConsistencyFromCounts(seeds)
	prob := propagation.BuildProbDense(p.Graph, p.prior, cons)

	matches := seedSet.Clone()
	inferred := prob.InferAll(cfg.Tau)
	// The seeds come in as pairs; the frontier holds vertex indexes.
	var frontier []int
	for _, q := range seeds {
		if qi := p.Graph.IndexOf(q); qi >= 0 {
			frontier = append(frontier, qi)
		}
	}
	verts := p.Graph.Vertices()
	for len(frontier) > 0 {
		var next []int
		for _, qi := range frontier {
			for _, en := range inferred.Ball(qi) {
				if pj := verts[en.Idx]; !matches.Has(pj) {
					matches.Add(pj)
					next = append(next, int(en.Idx))
				}
			}
		}
		frontier = next
	}
	return matches
}

// fitConsistencyFromCounts uses the direct estimator (observed matched
// counts) over the seed matches.
func (p *Prepared) fitConsistencyFromCounts(seeds []pair.Pair) map[ergraph.RelPair]consistency.Estimate {
	seedSet := pair.NewSet(seeds...)
	out := make(map[ergraph.RelPair]consistency.Estimate)
	for _, label := range p.Graph.Labels() {
		obs := p.consistencyObservations(label, seeds, seedSet)
		out[label] = consistency.FromCounts(obs, consistency.DefaultOptions())
	}
	return out
}
