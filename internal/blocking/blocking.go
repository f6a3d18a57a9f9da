// Package blocking implements candidate entity match generation (§IV-B):
// entity labels are normalized and tokenized, entities sharing enough
// label tokens are paired up, and pairs whose label Jaccard similarity
// falls below a threshold are pruned. Label similarities double as prior
// match probabilities Pr[m_p]. The subset of candidates whose normalized
// labels are exactly equal forms the initial match set Min used for
// attribute/relationship calibration (§IV-C, §V-A).
//
// Generate is an exact set-similarity join. Label tokens are interned to
// dense IDs through one strsim.Interner, ranked by ascending frequency
// over both KBs, and every label becomes its sorted set of ranks. A K1
// label x and a K2 label y sharing o tokens have Jaccard o/(|x|+|y|−o),
// so the pair is kept exactly when o reaches α, the least o for which
// that quotient reaches the threshold t. α is computed with the kernel's
// own float division, so it decides as the kernel does.
//
// The ℓ-prefix lemma (Wang, Li, Feng, "Can we beat the prefix
// filtering?", SIGMOD 2012) says that a pair with o ≥ α shares at least
// ℓ tokens within the first |x|−α+ℓ tokens of x and the first |y|−α+ℓ of
// y: its ℓ rarest shared tokens. So where α ≥ 2 a pair joins on the
// token pairs of its two (·−α+2)-prefixes (ℓ = 2): at t = 0.3 two
// 3-token labels need two shared tokens, so each label is signed by 3
// pairs instead of indexed under 3 tokens. Where a size pair's prefixes
// would hold more than maxPairs pairs, it joins on single tokens (ℓ = 1)
// instead. A longer prefix's signatures include a shorter one's, so each
// label is signed once, on the longest prefix any size pair needs it
// for; K2's signatures go into one hash-bucketed CSR, K1's probe it, and
// every hit is verified by merging the two sorted sets. Where α = 1,
// which needs |x|+|y| ≤ 1+1/t, one shared token is enough and the kernel
// counts shared tokens instead, over a token-indexed CSR of K2's short
// labels, which gives |x ∩ y| with no merge. Tokenizing, interning,
// relabeling and probing fan out over Options.Runner in grains of
// entities, which workers take from one cursor; K2's signature index is
// counted and filled by K2 entity range, side by side. The size plan,
// the rank sort and the short-label index are serial.
//
// The output is byte-identical to GenerateNaive, the retained per-pair
// string implementation that anchors the property tests. Each K1
// entity's candidates are sorted by K2 entity as they are emitted, and
// grains are contiguous K1 ranges, so the merged lists come out in pair
// order with no global sort.
package blocking

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
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
	// The paper uses 0.3, which is also what a threshold that is not
	// positive (or NaN) means.
	Threshold float64
	// Runner, when non-nil, tokenizes, interns and indexes labels and
	// probes K1 entities in parallel, in grains of grainFloor entities or
	// more. The result is identical either way; nil means serial.
	Runner par.Runner
}

// Generate produces the candidate match set Mc between k1 and k2 by a
// signature join over interned tokens: Join's pages, concatenated, with
// Priors filled.
func Generate(k1, k2 *kb.KB, opts Options) *Result {
	pages, initial := Join(k1, k2, opts, nil)
	cands := slices.Concat(pages...)
	res := &Result{Candidates: cands, Initial: initial, Priors: make(map[pair.Pair]float64, len(cands))}
	for _, c := range cands {
		res.Priors[c.Pair] = c.Prior
	}
	return res
}

// Join is the join behind Generate. It returns the candidates in pair
// order, in pages of at most pageLen that neither growth nor a final
// concatenation copies, and the initial matches; it makes no Priors map.
// Label words are cut in ws (nil: a new one).
func Join(k1, k2 *kb.KB, opts Options, ws *strsim.Workspace) (pages [][]Candidate, initial []pair.Pair) {
	if !(opts.Threshold > 0) {
		opts.Threshold = 0.3
	}
	j := newJoin(k1, k2, opts.Threshold, opts.Runner, ws)

	grains := par.Grains(opts.Runner, k1.NumEntities(), grainFloor)
	parts := make([]scratch, len(grains))
	par.Work(opts.Runner, grains, func(next iter.Seq2[int, par.Range]) {
		sc := &scratch{count: make([]int32, k2.NumEntities())} // one per worker
		for g, rg := range next {
			out := &parts[g]
			for u1 := rg.Lo; u1 < rg.Hi; u1++ {
				sc.cands = sc.cands[:0]
				j.probe(sc, kb.EntityID(u1))
				slices.SortFunc(sc.cands, func(a, b Candidate) int { return cmp.Compare(a.Pair.U2, b.Pair.U2) })
				for _, c := range sc.cands {
					if n := len(out.pages); n == 0 || len(out.pages[n-1]) == pageLen {
						out.pages = append(out.pages, make([]Candidate, 0, pageLen))
					}
					out.pages[len(out.pages)-1] = append(out.pages[len(out.pages)-1], c)
					// A prior of 1 is equal, non-empty token sets: equal
					// labels are then equal word lists.
					if c.Prior == 1 && (k1.Label(c.Pair.U1) == k2.Label(c.Pair.U2) || exactLabel(k1, k2, c.Pair)) {
						out.initial = append(out.initial, c.Pair)
					}
				}
			}
		}
	})

	// The grains are contiguous K1 ranges, so their lists follow each
	// other in pair order.
	for i := range parts {
		pages, initial = append(pages, parts[i].pages...), append(initial, parts[i].initial...)
	}
	return pages, initial
}

// pageLen is how many candidates a page of Join's output holds.
const pageLen = 2048

// maxPairs caps the token pairs of one ℓ = 2 prefix (a 9-token prefix);
// a size pair with a longer prefix on either side joins on ℓ = 1.
const maxPairs = 36

// join is one Generate call's read-only state, shared by the probe
// workers. lab's row u is entity u's label token set, ranks ascending:
// K1's entities, then K2's from row n1 on.
// scanY[|x|] is the largest |y| with α = 1, 0 if none, and post's row t
// lists the K2 labels of at most max(scanY) tokens that hold token t. A
// K1 label of |x| tokens is signed on its first pre1[ℓ][|x|] tokens, a
// K2 label of |y| tokens on its first pre2[ℓ][|y|], ℓ = 1 and 2 (0: not
// at all); sig's row b lists the K2 entities signed with the keys k with
// k&mask == b, each as the top 32 bits of its key over the entity.
type join struct {
	t          float64
	n1         int
	lab        csr[uint32]
	scanY      []int
	post       csr[kb.EntityID]
	pre1, pre2 [3][]int
	sig        csr[uint64]
	mask       uint64
}

// csr lists entries per row: row r is ent[start[r]:start[r+1]].
type csr[E any] struct {
	start []int32
	ent   []E
}

func (c csr[E]) of(r int) []E { return c.ent[c.start[r]:c.start[r+1]] }

// fill lays c out over rows by a counting sort of the entries of ranges:
// each(rg, emit) must pass every entry of rg to emit, in the order wanted
// within its row, the same way twice. A row lists the first range's
// entries, then the next one's, so the layout does not depend on the
// cut. The ranges count and fill side by side on r, each with a count
// per row of its own.
func (c *csr[E]) fill(r par.Runner, ranges []par.Range, rows int, each func(rg par.Range, emit func(row uint64, e E))) {
	at := make([][]int32, len(ranges)) // range g's count, then its next slot, per row
	par.RunAll(r, len(ranges), func(g int) {
		at[g] = make([]int32, rows)
		each(ranges[g], func(row uint64, _ E) { at[g][row]++ })
	})
	c.start = make([]int32, rows+1)
	for row, n := 0, int32(0); row < rows; row++ {
		for g := range at {
			n, at[g][row] = n+at[g][row], n
		}
		c.start[row+1] = n
	}
	c.ent = make([]E, c.start[rows])
	par.RunAll(r, len(ranges), func(g int) {
		each(ranges[g], func(row uint64, e E) { c.ent[at[g][row]], at[g][row] = e, at[g][row]+1 })
	})
}

// newJoin sizes the scan and the prefixes, and builds both indexes. A
// pair of an lx- and an ly-token label with overlap α or more shares its
// ℓ rarest shared tokens within the first lx−α+ℓ and ly−α+ℓ tokens. Where
// α = 1 the scan counts every shared token instead. Where α ≥ 2 the pair
// joins on those prefixes' token pairs (ℓ = 2), or, if either holds more
// than maxPairs pairs, on their single tokens (ℓ = 1). A prefix's
// signatures include every shorter one's, so each label is signed once,
// on the longest prefix any size pair needs, and the verification turns
// away what a size pair's own prefixes would not have met.
func newJoin(k1, k2 *kb.KB, t float64, r par.Runner, ws *strsim.Workspace) *join {
	lab, nTok := internLabels(k1, k2, r, ws)
	j := &join{t: t, n1: k1.NumEntities(), lab: lab}
	n := len(j.lab.start) - 1
	var sizes [2][]int // the distinct non-zero sizes of K1's and K2's labels
	for side, us := range [2][2]int{{0, j.n1}, {j.n1, n}} {
		for u := us[0]; u < us[1]; u++ {
			if m := len(j.lab.of(u)); m > 0 && !slices.Contains(sizes[side], m) {
				sizes[side] = append(sizes[side], m)
			}
		}
	}
	maxX, maxY := slices.Max(append(sizes[0], 0)), slices.Max(append(sizes[1], 0))
	j.scanY, j.pre1, j.pre2 = make([]int, maxX+1), [3][]int{1: make([]int, maxX+1), 2: make([]int, maxX+1)}, [3][]int{1: make([]int, maxY+1), 2: make([]int, maxY+1)}
	maxScan := 0
	for _, lx := range sizes[0] {
		for _, ly := range sizes[1] {
			a, ell := alpha(lx, ly, t), 1
			if a == 1 {
				j.scanY[lx], maxScan = max(j.scanY[lx], ly), max(maxScan, ly)
			}
			if a < 2 {
				continue
			} else if (lx-a+2)*(lx-a+1)/2 <= maxPairs && (ly-a+2)*(ly-a+1)/2 <= maxPairs {
				ell = 2
			}
			j.pre1[ell][lx] = max(j.pre1[ell][lx], lx-a+ell)
			j.pre2[ell][ly] = max(j.pre2[ell][ly], ly-a+ell)
		}
	}

	j.post.fill(nil, []par.Range{{Lo: 0, Hi: n - j.n1}}, nTok, func(rg par.Range, emit func(uint64, kb.EntityID)) {
		for u2 := rg.Lo; u2 < rg.Hi; u2++ {
			if y := j.lab.of(j.n1 + u2); len(y) <= maxScan {
				for _, tok := range y {
					emit(uint64(tok), kb.EntityID(u2))
				}
			}
		}
	})

	// Bucket K2's signature keys, about two to a bucket, by a counting
	// sort straight from the labels, signed twice by fill, per K2 entity
	// range. An m-token label has pre2[1][m] keys and p(p−1)/2, p =
	// pre2[2][m].
	total := 0
	for u := j.n1; u < n; u++ {
		m := len(j.lab.of(u))
		total += j.pre2[1][m] + j.pre2[2][m]*(j.pre2[2][m]-1)/2
	}
	nb := 1 << bits.Len(uint(total/2))
	j.mask = uint64(nb - 1)
	j.sig.fill(r, par.ChunkRanges(n-j.n1, r, min(par.Width(), (n-j.n1)/grainFloor)), nb, func(rg par.Range, emit func(uint64, uint64)) {
		var keys []uint64
		for u2 := rg.Lo; u2 < rg.Hi; u2++ {
			keys = appendSigs(keys[:0], j.lab.of(j.n1+u2), &j.pre2)
			for _, k := range keys {
				emit(k&j.mask, k>>32<<32|uint64(u2))
			}
		}
	})
	return j
}

// alpha returns the least overlap o ≤ min(lx, ly) for which an lx- and
// an ly-token label reach t — by the kernel's own division — or 0.
func alpha(lx, ly int, t float64) int {
	for o := 1; o <= min(lx, ly); o++ {
		if float64(o)/float64(lx+ly-o) >= t {
			return o
		}
	}
	return 0
}

// appendSigs appends the signature keys of set: its first pre[1][|set|]
// tokens one by one, and every pair of its first pre[2][|set|] tokens.
// Distinct signatures may share a key; a hit is verified anyway, so that
// costs a merge, never a candidate.
//
//remp:hotpath
func appendSigs(dst []uint64, set []uint32, pre *[3][]int) []uint64 {
	for _, a := range set[:pre[1][len(set)]] {
		dst = append(dst, sigKey(a, a))
	}
	p := set[:pre[2][len(set)]]
	for i, a := range p {
		for _, b := range p[i+1:] {
			dst = append(dst, sigKey(a, b))
		}
	}
	return dst
}

// sigKey mixes a token pair, or one token twice, into one key.
func sigKey(a, b uint32) uint64 {
	k := (uint64(a)<<32 | uint64(b)) * 0x9e3779b97f4a7c15
	k = (k ^ k>>31) * 0xbf58476d1ce4e5b9
	return k ^ k>>29
}

// scratch is a probe worker's state — a count per K2 entity (shared
// tokens in the scan, -1 once verified, 0 between labels), the entities
// the current label counted or verified, its signatures and candidates —
// or a grain's results, its candidate pages and initial matches.
type scratch struct {
	count   []int32
	touched []kb.EntityID
	sigs    []uint64
	cands   []Candidate
	pages   [][]Candidate
	initial []pair.Pair
}

// probe appends every candidate (u1, ·) to sc.cands. First it counts,
// over post, the tokens u1's label shares with each K2 label of at most
// scanY[|x|] tokens; then it signs the label and verifies every other K2
// label a signature hits, once, by merging the two sorted sets. Either
// way the overlap is exact, and emit divides it as GenerateNaive does.
// Allocation-free once the scratch buffers have grown.
//
//remp:hotpath
func (j *join) probe(sc *scratch, u1 kb.EntityID) {
	x := j.lab.of(int(u1))
	ymax := j.scanY[len(x)]
	for _, t := range x {
		for _, u2 := range j.post.of(int(t)) {
			if len(j.lab.of(j.n1+int(u2))) <= ymax {
				if sc.count[u2] == 0 {
					sc.touched = append(sc.touched, u2)
				}
				sc.count[u2]++
			}
		}
	}
	for _, u2 := range sc.touched {
		sc.emit(j.t, u1, u2, len(x), len(j.lab.of(j.n1+int(u2))), int(sc.count[u2]))
	}
	sc.sigs = appendSigs(sc.sigs[:0], x, &j.pre1)
	for _, k := range sc.sigs {
		b := k & j.mask
		for _, e := range j.sig.of(int(b)) {
			if u2 := kb.EntityID(uint32(e)); e>>32 == k>>32 && sc.count[u2] == 0 {
				sc.count[u2] = -1
				sc.touched = append(sc.touched, u2)
				y := j.lab.of(j.n1 + int(u2))
				sc.emit(j.t, u1, u2, len(x), len(y), strsim.IntersectionSizeIDs(x, y))
			}
		}
	}
	for _, u2 := range sc.touched {
		sc.count[u2] = 0
	}
	sc.touched = sc.touched[:0]
}

// emit keeps (u1, u2) if its inter shared tokens reach t: the division
// GenerateNaive performs on the same three integers, so the float is
// bit-identical.
//
//remp:hotpath
func (sc *scratch) emit(t float64, u1, u2 kb.EntityID, lx, ly, inter int) {
	if sim := float64(inter) / float64(lx+ly-inter); sim >= t {
		sc.cands = append(sc.cands, Candidate{Pair: pair.Pair{U1: u1, U2: u2}, Prior: sim})
	}
}

// internLabels tokenizes and interns the labels of K1's entities, then
// K2's, cutting them in ws, ranks the tokens by ascending frequency over
// both KBs (ties by ID) with a counting sort, and turns every label into
// its sorted set of ranks: TokenSet's set, by rank. It also returns the
// number of tokens.
func internLabels(k1, k2 *kb.KB, r par.Runner, ws *strsim.Workspace) (csr[uint32], int) {
	n1 := k1.NumEntities()
	var in strsim.Interner
	start, toks := in.Sets(ws, r, n1+k2.NumEntities(), func(u int) string {
		if u < n1 {
			return k1.Label(kb.EntityID(u))
		}
		return k2.Label(kb.EntityID(u - n1))
	})
	// rank[id] counts id's occurrences, then a counting sort by that
	// count turns it into id's rank in place.
	rank, maxF := make([]uint32, in.Len()), uint32(0)
	for _, id := range toks {
		rank[id]++
		maxF = max(maxF, rank[id])
	}
	next := make([]uint32, maxF+2) // next[f]: the next rank of a token seen f times
	for _, f := range rank {
		next[f+1]++
	}
	for f := 1; f < len(next); f++ {
		next[f] += next[f-1]
	}
	for id, f := range rank {
		rank[id], next[f] = next[f], next[f]+1
	}
	lab := csr[uint32]{start, toks}
	grains := par.Grains(r, len(start)-1, grainFloor)
	par.RunAll(r, len(grains), func(g int) {
		for u := grains[g].Lo; u < grains[g].Hi; u++ {
			set := lab.of(u)
			for i, id := range set {
				set[i] = rank[id]
			}
			slices.Sort(set)
		}
	})
	return lab, len(rank)
}

// grainFloor is the fewest entities a grain of the probe, the relabeling
// or a K2 index range holds: below it a helper costs more to start than
// the work it would share. Tests lower it; the cut never affects the
// result.
var grainFloor = 1024
