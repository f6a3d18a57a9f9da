package baselines

import (
	"repro/internal/core"
	"repro/internal/pair"
	"repro/internal/simvec"
)

// FromPrepared builds a baseline Input from a prepared Remp pipeline, so
// every method consumes the identical retained pairs, priors and vectors
// (the paper's setup: "all methods take the same retained entity matches
// Mrd as input"). The Prepared keeps vectors and priors by vertex index;
// the Input's by-pair maps are built here, its own.
func FromPrepared(p *core.Prepared, asker core.Asker, seeds []pair.Pair, seed int64) *Input {
	vectors := make(map[pair.Pair]simvec.Vector, len(p.Retained))
	priors := make(map[pair.Pair]float64, len(p.Retained))
	for i, q := range p.Retained {
		vectors[q] = p.Vector(i)
		priors[q] = p.Prior(i)
	}
	return &Input{
		K1:       p.K1,
		K2:       p.K2,
		Retained: append([]pair.Pair(nil), p.Retained...),
		Priors:   priors,
		Vectors:  vectors,
		Asker:    asker,
		Seeds:    seeds,
		Seed:     seed,
	}
}
