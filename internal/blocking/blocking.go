// Package blocking implements candidate entity match generation (§IV-B):
// entity labels are normalized and tokenized, a token inverted index pairs
// up entities sharing at least one token, and pairs whose label Jaccard
// similarity falls below a threshold are pruned. Label similarities double
// as prior match probabilities Pr[m_p]. The subset of candidates whose
// normalized labels are exactly equal forms the initial match set Min used
// for attribute/relationship calibration (§IV-C, §V-A).
//
// Generate runs the index-driven path: tokens are interned to dense IDs
// through a kb.TokenDict, posting lists hold entity IDs instead of
// strings, a min/max length bound skips intersections that cannot reach
// the threshold, and independent K1 entities are scanned in parallel when
// Options.Runner is set. Its output is byte-identical to GenerateNaive,
// the retained per-pair string implementation that anchors the property
// tests.
package blocking

import (
	"sort"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/strsim"
)

// Candidate is a candidate entity match with its label-similarity prior.
type Candidate struct {
	Pair  pair.Pair
	Prior float64 // label Jaccard similarity, used as Pr[m_p]
}

// Result holds the outputs of candidate generation.
type Result struct {
	// Candidates is Mc, sorted by pair for determinism.
	Candidates []Candidate
	// Initial is Min ⊆ Mc: pairs whose normalized labels match exactly.
	Initial []pair.Pair
	// Priors maps every candidate pair to its prior probability.
	Priors map[pair.Pair]float64
}

// Runner runs n independent tasks, possibly in parallel. *core.Scheduler
// satisfies it; blocking declares its own interface because core imports
// this package.
type Runner interface {
	ForEach(n int, fn func(i int))
}

// Options configures candidate generation.
type Options struct {
	// Threshold is the minimal label Jaccard similarity to keep a pair.
	// The paper uses 0.3.
	Threshold float64
	// Runner, when non-nil, scans K1 entities in parallel (one contiguous
	// chunk per scheduler slot). The result is identical either way; nil
	// means serial.
	Runner Runner
}

// DefaultOptions mirrors the paper's setup (threshold 0.3).
func DefaultOptions() Options {
	return Options{Threshold: 0.3}
}

// Generate produces the candidate match set Mc between k1 and k2 using the
// interned-token inverted index. Candidates, priors and initial matches
// are byte-identical to GenerateNaive on the same inputs.
func Generate(k1, k2 *kb.KB, opts Options) *Result {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.3
	}

	dict := kb.NewTokenDict()
	toks1 := internAll(k1, dict)
	toks2 := internAll(k2, dict)

	// Inverted index over K2 tokens: posting lists of K2 entity IDs in
	// ascending order, indexed by dense token ID.
	postings := make([][]kb.EntityID, dict.Len())
	for u2, toks := range toks2 {
		for _, t := range toks {
			postings[t] = append(postings[t], kb.EntityID(u2))
		}
	}

	n1 := len(toks1)
	chunks := chunkRanges(n1, opts.Runner)
	parts := make([]scanScratch, len(chunks))
	run(opts.Runner, len(chunks), func(ci int) {
		sc := &parts[ci]
		sc.seen = make([]uint32, len(toks2))
		for u1 := chunks[ci].lo; u1 < chunks[ci].hi; u1++ {
			scanEntity(sc, u1, toks1[u1], toks2, postings, k1, k2, opts.Threshold)
		}
	})

	res := &Result{Priors: make(map[pair.Pair]float64)}
	for i := range parts {
		res.Candidates = append(res.Candidates, parts[i].cands...)
		res.Initial = append(res.Initial, parts[i].initial...)
	}
	for _, c := range res.Candidates {
		res.Priors[c.Pair] = c.Prior
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		return res.Candidates[i].Pair.Less(res.Candidates[j].Pair)
	})
	sort.Slice(res.Initial, func(i, j int) bool {
		return res.Initial[i].Less(res.Initial[j])
	})
	return res
}

// scanScratch is the per-chunk state of the parallel scan: an epoch-
// stamped seen array (O(1) reset per K1 entity) and the chunk's result
// buffers, merged serially afterwards.
type scanScratch struct {
	seen    []uint32
	epoch   uint32
	cands   []Candidate
	initial []pair.Pair
}

// scanEntity emits every candidate (u1, ·) into sc. A pair is scored the
// first time any shared token reaches it; the similarity itself does not
// depend on which token that was, so the emitted set matches the naive
// scan exactly.
func scanEntity(sc *scanScratch, u1 int, t1 []kb.TokenID, toks2 [][]kb.TokenID,
	postings [][]kb.EntityID, k1, k2 *kb.KB, threshold float64) {
	if len(t1) == 0 {
		return
	}
	sc.epoch++
	for _, t := range t1 {
		for _, u2 := range postings[t] {
			if sc.seen[u2] == sc.epoch {
				continue
			}
			sc.seen[u2] = sc.epoch
			t2 := toks2[u2]
			// min/max is the best Jaccard these set sizes allow; IEEE
			// division is monotone, so skipping here can never drop a
			// pair the exact comparison below would keep.
			if jaccardUpperBoundIDs(len(t1), len(t2)) < threshold {
				continue
			}
			sim := jaccardIDs(t1, t2)
			if sim < threshold {
				continue
			}
			p := pair.Pair{U1: kb.EntityID(u1), U2: u2}
			sc.cands = append(sc.cands, Candidate{Pair: p, Prior: sim})
			if sim == 1 && exactLabel(k1, k2, p) {
				sc.initial = append(sc.initial, p)
			}
		}
	}
}

// jaccardIDs is strsim.JaccardIDs over kb.TokenID sets; set sizes and
// intersection sizes match the string token sets exactly, so the float is
// byte-identical to strsim.Jaccard on the naive path.
//
//remp:hotpath
func jaccardIDs(a, b []kb.TokenID) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

//remp:hotpath
func jaccardUpperBoundIDs(la, lb int) float64 {
	return strsim.JaccardUpperBound(la, lb)
}

// internAll tokenizes every entity label and interns the tokens, returning
// per-entity ascending TokenID sets.
func internAll(k *kb.KB, dict *kb.TokenDict) [][]kb.TokenID {
	out := make([][]kb.TokenID, k.NumEntities())
	for u := 0; u < k.NumEntities(); u++ {
		set := strsim.TokenSet(k.Label(kb.EntityID(u)))
		if len(set) == 0 {
			continue
		}
		ids := make([]kb.TokenID, len(set))
		for i, t := range set {
			ids[i] = dict.Intern(t)
		}
		sortTokenIDs(ids)
		out[u] = ids
	}
	return out
}

func sortTokenIDs(a []kb.TokenID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// chunkRange is a half-open [lo, hi) range of K1 entity IDs.
type chunkRange struct{ lo, hi int }

// chunkRanges splits n entities into contiguous chunks: one per scheduler
// slot when a runner is present, a single chunk otherwise. Entity scan
// cost is homogeneous, so equal-size chunks balance well.
func chunkRanges(n int, r Runner) []chunkRange {
	if n == 0 {
		return nil
	}
	nc := 1
	if r != nil {
		nc = parallelChunks
		if nc > n {
			nc = n
		}
	}
	out := make([]chunkRange, nc)
	for i := 0; i < nc; i++ {
		out[i] = chunkRange{lo: i * n / nc, hi: (i + 1) * n / nc}
	}
	return out
}

// run executes fn(0..n-1) through r, or serially when r is nil.
func run(r Runner, n int, fn func(int)) {
	if r == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r.ForEach(n, fn)
}

// exactLabel reports whether the two entities have identical normalized
// labels (the paper's criterion for initial entity matches).
func exactLabel(k1, k2 *kb.KB, p pair.Pair) bool {
	l1 := strsim.Normalize(k1.Label(p.U1))
	l2 := strsim.Normalize(k2.Label(p.U2))
	return l1 != "" && l1 == l2
}
