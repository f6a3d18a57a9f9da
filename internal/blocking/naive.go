package blocking

import (
	"cmp"
	"slices"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/strsim"
)

// GenerateNaive is the retained per-pair string implementation of
// candidate generation. It is the semantic anchor for Generate: the
// property tests require both paths to return byte-identical results on
// randomized KBs, the same way InferAllFW anchors the CSR propagation
// engine. It allocates per pair and should not be used at scale.
func GenerateNaive(k1, k2 *kb.KB, opts Options) *Result {
	if !(opts.Threshold > 0) {
		opts.Threshold = 0.3
	}

	tokens1 := tokenizeAll(k1)
	tokens2 := tokenizeAll(k2)

	// Inverted index over K2 tokens.
	index := make(map[string][]kb.EntityID)
	for u2, toks := range tokens2 {
		for _, t := range toks {
			index[t] = append(index[t], kb.EntityID(u2))
		}
	}

	res := &Result{Priors: make(map[pair.Pair]float64)}
	seen := make(map[pair.Pair]struct{})
	for u1, toks1 := range tokens1 {
		if len(toks1) == 0 {
			continue
		}
		for _, t := range toks1 {
			for _, u2 := range index[t] {
				p := pair.Pair{U1: kb.EntityID(u1), U2: u2}
				if _, ok := seen[p]; ok {
					continue
				}
				seen[p] = struct{}{}
				sim := strsim.Jaccard(toks1, tokens2[u2])
				if sim < opts.Threshold {
					continue
				}
				res.Candidates = append(res.Candidates, Candidate{Pair: p, Prior: sim})
				res.Priors[p] = sim
				if sim == 1 && exactLabel(k1, k2, p) {
					res.Initial = append(res.Initial, p)
				}
			}
		}
	}

	byPair := func(a, b pair.Pair) int { return cmp.Or(cmp.Compare(a.U1, b.U1), cmp.Compare(a.U2, b.U2)) }
	slices.SortFunc(res.Candidates, func(a, b Candidate) int { return byPair(a.Pair, b.Pair) })
	slices.SortFunc(res.Initial, byPair)
	return res
}

// exactLabel reports whether the two entities have identical normalized
// labels (the paper's criterion for initial entity matches).
func exactLabel(k1, k2 *kb.KB, p pair.Pair) bool {
	l1 := strsim.Normalize(k1.Label(p.U1))
	l2 := strsim.Normalize(k2.Label(p.U2))
	return l1 != "" && l1 == l2
}

func tokenizeAll(k *kb.KB) [][]string {
	out := make([][]string, k.NumEntities())
	for u := 0; u < k.NumEntities(); u++ {
		out[u] = strsim.TokenSet(k.Label(kb.EntityID(u)))
	}
	return out
}
