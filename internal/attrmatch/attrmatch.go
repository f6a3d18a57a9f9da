// Package attrmatch implements attribute matching (§IV-C): the similarity
// simA(a1,a2) between attributes of two KBs is the average extended-Jaccard
// similarity (simL) of their value sets across the initial entity matches
// Min (Eq. 1); a global 1:1 matching is then selected with the Hungarian
// algorithm, as widely done in ontology matching. Value sets are read as
// the KBs' literal-ID rows, through a strsim.Corpus that the caller may
// share with the later similarity stages.
package attrmatch

import (
	"iter"
	"sort"

	"repro/internal/assign"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/strsim"
)

// Match is a matched attribute pair with its similarity score.
type Match struct {
	A1  kb.AttrID
	A2  kb.AttrID
	Sim float64
}

// Options configures attribute matching.
type Options struct {
	// LiteralThreshold is the internal literal-similarity threshold of
	// simL; the paper sets 0.9 "to guarantee high precision".
	LiteralThreshold float64
	// MinSimilarity is the minimal simA for a pair to participate in the
	// 1:1 selection at all.
	MinSimilarity float64
	// OneToOne enables the global 1:1 constraint (Hungarian). Disabling it
	// reproduces the "Remp w/o 1:1 matching" ablation of Table IV, which
	// keeps, for each attribute in K1, every counterpart above
	// MinSimilarity.
	OneToOne bool
	// Runner, when non-nil, computes the per-match simL contributions in
	// parallel. The simA matrix is byte-identical either way (the float
	// accumulation order is preserved); nil means serial.
	Runner par.Runner
}

// DefaultOptions mirrors the paper (threshold 0.9, 1:1 on).
func DefaultOptions() Options {
	return Options{LiteralThreshold: 0.9, MinSimilarity: 0.05, OneToOne: true}
}

// Similarities computes the full simA matrix between the attributes of k1
// and k2 over the initial matches min (Eq. 1), reading their literals
// through a corpus of its own. Entry [a1][a2] is zero when no initial
// match has values for either attribute.
func Similarities(k1, k2 *kb.KB, min []pair.Pair, opts Options) [][]float64 {
	return similarities(strsim.NewCorpus(k1, k2, nil), min, opts)
}

// similarities is Similarities through c, which it extends with the
// literals of min's entities: those are loaded into c in one batch, the
// per-match simL contributions computed off the KBs' literal-ID rows — in
// parallel when opts.Runner is set — and then accumulated serially in the
// original match order, so the floats are byte-identical to
// SimilaritiesNaive.
func similarities(c *strsim.Corpus, min []pair.Pair, opts Options) [][]float64 {
	k1, k2 := c.KBs()
	n1, n2 := k1.NumAttrs(), k2.NumAttrs()
	sum := make([][]float64, n1)
	cnt := make([][]int, n1)
	for i := range sum {
		sum[i] = make([]float64, n2)
		cnt[i] = make([]int, n2)
	}
	if len(min) == 0 {
		return sum
	}
	for _, m := range min {
		for _, a1 := range k1.Attrs(m.U1) {
			c.Add(0, k1.AttrLits(m.U1, a1))
		}
		for _, a2 := range k2.Attrs(m.U2) {
			c.Add(1, k2.AttrLits(m.U2, a2))
		}
	}
	c.Load(opts.Runner)

	// Contribution pass over grains of min, which the workers take from
	// one cursor, each with one scratch: a grain records its (a1, a2,
	// simL) contributions in match order.
	grains := par.Grains(opts.Runner, len(min), matchGrain)
	parts := make([][]contrib, len(grains))
	par.Work(opts.Runner, grains, func(next iter.Seq2[int, par.Range]) {
		var sc strsim.MatchScratch
		var rows2 [][]kb.LitID // the match's K2 rows, by position in attrs2
		for g, rg := range next {
			most := 0
			for _, m := range min[rg.Lo:rg.Hi] {
				most += len(k1.Attrs(m.U1)) * len(k2.Attrs(m.U2))
			}
			out := make([]contrib, 0, most)
			for _, m := range min[rg.Lo:rg.Hi] {
				attrs2 := k2.Attrs(m.U2)
				rows2 = rows2[:0]
				for _, a2 := range attrs2 {
					rows2 = append(rows2, k2.AttrLits(m.U2, a2))
				}
				for _, a1 := range k1.Attrs(m.U1) {
					v1 := k1.AttrLits(m.U1, a1)
					for y, a2 := range attrs2 {
						v2 := rows2[y]
						if len(v1) == 0 && len(v2) == 0 {
							continue
						}
						out = append(out, contrib{a1: a1, a2: a2, sim: c.SimL(v1, v2, opts.LiteralThreshold, &sc)})
					}
				}
			}
			parts[g] = out
		}
	})

	// Serial accumulation in grain (= original match) order keeps the
	// float sums byte-identical to the naive single loop.
	for _, part := range parts {
		for _, ct := range part {
			sum[ct.a1][ct.a2] += ct.sim
			cnt[ct.a1][ct.a2]++
		}
	}
	for i := range sum {
		for j := range sum[i] {
			if cnt[i][j] > 0 {
				sum[i][j] /= float64(cnt[i][j])
			}
		}
	}
	return sum
}

// matchGrain is the fewest initial matches a grain of the contribution
// pass holds: below it a helper costs more to start than the matches it
// would score. Tests lower it; the cut never affects the result.
var matchGrain = 64

// contrib is one match's simL contribution to a simA matrix cell.
type contrib struct {
	a1, a2 kb.AttrID
	sim    float64
}

// SimilaritiesNaive is the retained per-pair string implementation of
// Eq. 1, the semantic anchor for the batched Similarities: the property
// tests require both to return byte-identical matrices on randomized KBs.
func SimilaritiesNaive(k1, k2 *kb.KB, min []pair.Pair, opts Options) [][]float64 {
	n1, n2 := k1.NumAttrs(), k2.NumAttrs()
	sum := make([][]float64, n1)
	cnt := make([][]int, n1)
	for i := range sum {
		sum[i] = make([]float64, n2)
		cnt[i] = make([]int, n2)
	}
	for _, m := range min {
		attrs1 := k1.Attrs(m.U1)
		attrs2 := k2.Attrs(m.U2)
		for _, a1 := range attrs1 {
			v1 := k1.AttrValues(m.U1, a1)
			for _, a2 := range attrs2 {
				v2 := k2.AttrValues(m.U2, a2)
				if len(v1) == 0 && len(v2) == 0 {
					continue
				}
				sum[a1][a2] += strsim.SimL(v1, v2, opts.LiteralThreshold)
				cnt[a1][a2]++
			}
		}
	}
	for i := range sum {
		for j := range sum[i] {
			if cnt[i][j] > 0 {
				sum[i][j] /= float64(cnt[i][j])
			}
		}
	}
	return sum
}

// FindMatches runs attribute matching end to end, over a corpus of its
// own, and returns the matches sorted by (A1, A2).
func FindMatches(k1, k2 *kb.KB, min []pair.Pair, opts Options) []Match {
	return FindMatchesIn(strsim.NewCorpus(k1, k2, nil), min, opts)
}

// FindMatchesIn is FindMatches over the KB pair of c, reading literals
// through c and leaving those of min's entities loaded in it, so that a
// later stage over the same pair reads none of them again.
func FindMatchesIn(c *strsim.Corpus, min []pair.Pair, opts Options) []Match {
	if opts.LiteralThreshold == 0 {
		opts.LiteralThreshold = 0.9
	}
	sims := similarities(c, min, opts)
	var out []Match
	if opts.OneToOne {
		// Zero out entries under MinSimilarity so Hungarian leaves them
		// unassigned.
		W := make([][]float64, len(sims))
		for i := range sims {
			W[i] = make([]float64, len(sims[i]))
			for j, s := range sims[i] {
				if s >= opts.MinSimilarity {
					W[i][j] = s
				}
			}
		}
		rowMatch := assign.Hungarian(W)
		for a1, a2 := range rowMatch {
			if a2 >= 0 {
				out = append(out, Match{A1: kb.AttrID(a1), A2: kb.AttrID(a2), Sim: sims[a1][a2]})
			}
		}
	} else {
		for a1 := range sims {
			for a2, s := range sims[a1] {
				if s >= opts.MinSimilarity {
					out = append(out, Match{A1: kb.AttrID(a1), A2: kb.AttrID(a2), Sim: s})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A1 != out[j].A1 {
			return out[i].A1 < out[j].A1
		}
		return out[i].A2 < out[j].A2
	})
	return out
}
