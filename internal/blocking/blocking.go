// Package blocking implements candidate entity match generation (§IV-B):
// entity labels are normalized and tokenized, a token inverted index pairs
// up entities sharing at least one token, and pairs whose label Jaccard
// similarity falls below a threshold are pruned. Label similarities double
// as prior match probabilities Pr[m_p]. The subset of candidates whose
// normalized labels are exactly equal forms the initial match set Min used
// for attribute/relationship calibration (§IV-C, §V-A).
//
// Generate is an exact counting join (ScanCount). Tokens are interned to
// dense IDs through a kb.TokenDict and K2's inverted index is one CSR
// (row offsets per token over one flat entity array). For each K1 label
// the kernel walks its tokens' posting rows and increments a counter per
// K2 entity; label token sets are deduplicated and an entity occurs once
// per row, so the counter ends at |t1 ∩ t2| and the Jaccard follows from
// the two set sizes with no per-pair merge. Labels are tokenized, and
// contiguous K1 ranges scanned, in parallel when Options.Runner is set.
// Prefix filtering is deliberately absent: at the paper's threshold 0.3
// the prefix |x| − ⌈0.3·|x|⌉ + 1 of a label of up to three tokens is the
// whole label (and all but one token up to six), so it would skip no
// posting entry that counting reads. The output is byte-identical to
// GenerateNaive, the retained per-pair string implementation that anchors
// the property tests. Each K1 entity's candidates are sorted by K2 entity
// as they are emitted, and chunks are contiguous K1 ranges, so the merged
// lists come out in pair order with no global sort.
package blocking

import (
	"bytes"
	"cmp"
	"runtime"
	"slices"

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

// Options configures candidate generation.
type Options struct {
	// Threshold is the minimal label Jaccard similarity to keep a pair.
	// The paper uses 0.3.
	Threshold float64
	// Runner, when non-nil, tokenizes labels and scans K1 entities in
	// parallel (one contiguous chunk per scheduler slot). The result is
	// identical either way; nil means serial.
	Runner pair.Runner
}

// DefaultOptions mirrors the paper's setup (threshold 0.3).
func DefaultOptions() Options {
	return Options{Threshold: 0.3}
}

// Generate produces the candidate match set Mc between k1 and k2 by
// counting shared tokens over the interned-token inverted index.
// Candidates, priors and initial matches are byte-identical to
// GenerateNaive on the same inputs.
func Generate(k1, k2 *kb.KB, opts Options) *Result {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.3
	}

	dict := kb.NewTokenDict()
	lab1 := internLabels(k1, dict, opts.Runner)
	lab2 := internLabels(k2, dict, opts.Runner)
	ix := newPostings(lab2, dict.Len())

	chunks := pair.ChunkRanges(k1.NumEntities(), opts.Runner, parallelChunks)
	parts := make([]scanScratch, len(chunks))
	pair.RunAll(opts.Runner, len(chunks), func(ci int) {
		sc := &parts[ci]
		sc.count = make([]int32, len(ix.len2))
		for u1 := chunks[ci].Lo; u1 < chunks[ci].Hi; u1++ {
			from := len(sc.cands)
			ix.scan(sc, kb.EntityID(u1), lab1.of(u1), opts.Threshold)
			emitted := sc.cands[from:]
			slices.SortFunc(emitted, byU2)
			for _, c := range emitted {
				if c.Prior == 1 && sc.exactLabel(k1.Label(c.Pair.U1), k2.Label(c.Pair.U2)) {
					sc.initial = append(sc.initial, c.Pair)
				}
			}
		}
	})

	res := &Result{}
	for i := range parts {
		res.Candidates = append(res.Candidates, parts[i].cands...)
		res.Initial = append(res.Initial, parts[i].initial...)
	}
	res.Priors = make(map[pair.Pair]float64, len(res.Candidates))
	for _, c := range res.Candidates {
		res.Priors[c.Pair] = c.Prior
	}
	return res
}

// byU2 orders one K1 entity's candidates by K2 entity.
func byU2(a, b Candidate) int { return cmp.Compare(a.Pair.U2, b.Pair.U2) }

// postings is K2's inverted index in CSR form: the entities whose label
// holds token t are ent[start[t]:start[t+1]], ascending, each once.
type postings struct {
	start []int32
	ent   []kb.EntityID
	len2  []int32 // token-set size of every K2 label
}

// newPostings inverts K2's label sets by counting sort over nTokens rows.
func newPostings(lab2 labelSets, nTokens int) *postings {
	n2 := len(lab2.start) - 1
	ix := &postings{
		start: make([]int32, nTokens+1),
		ent:   make([]kb.EntityID, len(lab2.toks)),
		len2:  make([]int32, n2),
	}
	for _, t := range lab2.toks {
		ix.start[t+1]++
	}
	for t := 0; t < nTokens; t++ {
		ix.start[t+1] += ix.start[t]
	}
	next := append([]int32(nil), ix.start[:nTokens]...)
	for u2 := 0; u2 < n2; u2++ {
		toks := lab2.of(u2)
		ix.len2[u2] = int32(len(toks))
		for _, t := range toks {
			ix.ent[next[t]] = kb.EntityID(u2)
			next[t]++
		}
	}
	return ix
}

// scanScratch is the per-chunk state of the parallel scan: one shared-
// token counter per K2 entity (int32, so no label can overflow it), the
// entities the current label touched — which is also the list of counters
// to zero before the next label — the chunk's result buffers, merged
// serially afterwards, and exactLabel's normalizer buffers.
type scanScratch struct {
	count   []int32
	touched []kb.EntityID
	cands   []Candidate
	initial []pair.Pair
	words   []byte
	ends    []int32
}

// scan appends every candidate (u1, ·) to sc.cands. After the counting
// pass sc.count[u2] is |t1 ∩ t2| for exactly the touched entities, and
// inter / (|t1| + |t2| − inter) is the division GenerateNaive performs on
// the same three integers, so the float is bit-identical. Allocation-free
// once touched and cands have grown.
//
//remp:hotpath
func (ix *postings) scan(sc *scanScratch, u1 kb.EntityID, t1 []kb.TokenID, threshold float64) {
	for _, t := range t1 {
		for _, u2 := range ix.ent[ix.start[t]:ix.start[t+1]] {
			if sc.count[u2] == 0 {
				sc.touched = append(sc.touched, u2)
			}
			sc.count[u2]++
		}
	}
	for _, u2 := range sc.touched {
		inter := int(sc.count[u2])
		sc.count[u2] = 0
		sim := float64(inter) / float64(len(t1)+int(ix.len2[u2])-inter)
		if sim >= threshold {
			sc.cands = append(sc.cands, Candidate{Pair: pair.Pair{U1: u1, U2: u2}, Prior: sim})
		}
	}
	sc.touched = sc.touched[:0]
}

// labelSets holds every entity's deduplicated label tokens in one flat
// array: entity u's set is toks[start[u]:start[u+1]].
type labelSets struct {
	start []int32
	toks  []kb.TokenID
}

func (l labelSets) of(u int) []kb.TokenID { return l.toks[l.start[u]:l.start[u+1]] }

// wordArena is one chunk's tokenized labels: every word back to back in
// buf, word i ending at ends[i], and the chunk's j-th entity's words
// ending at word last[j].
type wordArena struct {
	buf  []byte
	ends []int32
	last []int32
}

// internLabels tokenizes every entity label into per-chunk arenas — in
// parallel when r is set — and then interns the words serially in entity
// order, so TokenIDs are assigned first-come exactly as a serial pass
// would assign them. A label's set is its IDs sorted and deduplicated:
// equal tokens have equal IDs, so it is TokenSet's set, by ID.
func internLabels(k *kb.KB, dict *kb.TokenDict, r pair.Runner) labelSets {
	n := k.NumEntities()
	chunks := pair.ChunkRanges(n, r, parallelChunks)
	arenas := make([]wordArena, len(chunks))
	pair.RunAll(r, len(chunks), func(ci int) {
		a := &arenas[ci]
		for u := chunks[ci].Lo; u < chunks[ci].Hi; u++ {
			a.buf, a.ends = strsim.AppendWords(a.buf, a.ends, k.Label(kb.EntityID(u)), true)
			a.last = append(a.last, int32(len(a.ends)))
		}
	})
	out := labelSets{start: make([]int32, n+1)}
	u := 0
	for _, a := range arenas {
		from, w := int32(0), 0
		for _, last := range a.last {
			set := len(out.toks)
			for ; w < int(last); w++ {
				out.toks = append(out.toks, dict.Intern(a.buf[from:a.ends[w]]))
				from = a.ends[w]
			}
			slices.Sort(out.toks[set:])
			out.toks = out.toks[:set+len(slices.Compact(out.toks[set:]))]
			u++
			out.start[u] = int32(len(out.toks))
		}
	}
	return out
}

// parallelChunks is how many contiguous entity ranges Generate fans out
// when a Runner is supplied. One chunk per CPU keeps the per-chunk counter
// arrays (4 bytes × |K2| each) proportional to real parallelism; the chunk
// count never affects the result.
var parallelChunks = runtime.NumCPU()

// exactLabel reports whether two labels normalize to the same non-empty
// string (the paper's criterion for initial entity matches). Normalize
// joins a label's words with single spaces, so that is the same word list:
// the same bytes, cut at the same offsets. Both word lists are built in
// the chunk's scratch, which after warm-up makes the test allocation-free.
func (sc *scanScratch) exactLabel(l1, l2 string) bool {
	sc.words, sc.ends = strsim.AppendWords(sc.words[:0], sc.ends[:0], l1, false)
	n, w := int32(len(sc.words)), len(sc.ends)
	sc.words, sc.ends = strsim.AppendWords(sc.words, sc.ends, l2, false)
	if w == 0 || len(sc.ends) != 2*w || !bytes.Equal(sc.words[:n], sc.words[n:]) {
		return false
	}
	for i, e := range sc.ends[:w] {
		if sc.ends[w+i] != n+e {
			return false
		}
	}
	return true
}
