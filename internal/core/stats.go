package core

import (
	"slices"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// seedStats is the loop's incremental form of the consistency evidence
// (§V-A): per edge label, the observation list consistency.Fit consumes,
// kept up to date by folding newly confirmed and propagated matches into
// it instead of regathering every seed's neighborhoods each batch.
//
// The lists follow the canonical seed order re-estimation has always
// fitted in — the initial matches in Prepared.Initial order (first
// occurrence), then every later match ascending by pair — because Fit's
// likelihood sums are order-sensitive in floating point: the same rows in
// the same order reproduce a from-scratch gather bit for bit.
//
// It is per-loop state: it lives in the Loop, never in the Prepared.
type seedStats struct {
	p *Prepared
	// rank holds every seed: an initial match maps to its first index in
	// Prepared.Initial, a later match to -1. partners indexes the same set
	// by side-1 entity — the side-2 entities it is matched to — so "does
	// v1 have a seed counterpart among these values" is a lookup per
	// partner (one, under the 1:1 constraint), not a probe per value.
	rank     map[pair.Pair]int32
	partners map[kb.EntityID][]kb.EntityID
	// labels is addressed by the label's index in p.Graph.Labels().
	labels []labelStats
}

// labelStats is one label's observation list in canonical order. Only
// participating seeds — those with a non-empty neighborhood under the
// label on either side — have a row. Rows of initial matches form the
// prefix (ranks ascending); the tail is ascending by pair, so both halves
// are binary-searchable.
type labelStats struct {
	seeds []pair.Pair
	ranks []int32 // ranks of the prefix rows; len(ranks) is the prefix length
	obs   []consistency.Observation
	// dirty marks a list changed since its last fit.
	dirty bool
}

// newSeedStats gathers the initial matches' observations.
func newSeedStats(p *Prepared) *seedStats {
	initial := p.Initial
	labels := p.Graph.Labels()
	st := &seedStats{
		p:        p,
		rank:     make(map[pair.Pair]int32, len(initial)),
		partners: make(map[kb.EntityID][]kb.EntityID, len(initial)),
		labels:   make([]labelStats, len(labels)),
	}
	for i, m := range initial {
		if _, dup := st.rank[m]; !dup {
			st.add(m, int32(i))
		}
	}
	for i, m := range initial {
		if st.rank[m] != int32(i) {
			continue // a repeated initial match keeps its first position
		}
		for li, label := range labels {
			n1, n2 := p.neighbors(label, m)
			if len(n1) == 0 && len(n2) == 0 {
				continue
			}
			ls := &st.labels[li]
			ls.seeds = append(ls.seeds, m)
			ls.ranks = append(ls.ranks, int32(i))
			ls.obs = append(ls.obs, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: st.knownL(n1, n2)})
		}
	}
	return st
}

// fold adds the pending matches to the seed set one at a time, keeping
// every label's observations exact for the set so far: the new seed adds
// its own row to each label it participates in, and each existing seed
// that has it as a neighbor pair gains one known value — unless the seed's
// side-1 entity already had a seed counterpart there. Nothing else can
// change. Labels whose list changed are marked dirty.
func (st *seedStats) fold(pending []pair.Pair) {
	labels := st.p.Graph.Labels()
	for _, m := range pending {
		if _, seen := st.rank[m]; seen {
			continue
		}
		st.add(m, -1)
		for li, label := range labels {
			ls := &st.labels[li]
			if n1, n2 := st.p.neighbors(label, m); len(n1) > 0 || len(n2) > 0 {
				ls.insert(m, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: st.knownL(n1, n2)})
			}
			// m = (v1, v2) is a neighbor pair of the seed (a, b) exactly when
			// v1 ∈ N(a) and v2 ∈ N(b): walk the label backwards to find them.
			back := label
			back.Inverse = !label.Inverse
			p1, p2 := st.p.neighbors(back, m)
			for _, a := range p1 {
				for _, b := range st.partners[a] {
					owner := pair.Pair{U1: a, U2: b}
					if _, linked := slices.BinarySearch(p2, b); !linked || owner == m { // m's own row already counts m
						continue
					}
					_, n2 := st.p.neighbors(label, owner)
					if !st.hasOtherPartner(m, n2) {
						ls.obs[ls.find(owner, st.rank[owner])].KnownL++
						ls.dirty = true
					}
				}
			}
		}
	}
}

// add joins m to the seed set.
func (st *seedStats) add(m pair.Pair, rank int32) {
	st.rank[m] = rank
	st.partners[m.U1] = append(st.partners[m.U1], m.U2)
}

// hasOtherPartner reports whether m's side-1 entity has a seed counterpart
// among the (sorted) values n2 other than m's own side-2 entity.
//
//remp:hotpath
func (st *seedStats) hasOtherPartner(m pair.Pair, n2 []kb.EntityID) bool {
	for _, v2 := range st.partners[m.U1] {
		if v2 == m.U2 {
			continue
		}
		if _, ok := slices.BinarySearch(n2, v2); ok {
			return true
		}
	}
	return false
}

// knownL counts the side-1 values with a counterpart among the (sorted)
// side-2 values that is itself a seed — the observed lower bound for the
// latent matched-value count.
//
//remp:hotpath
func (st *seedStats) knownL(n1, n2 []kb.EntityID) int {
	known := 0
	for _, v1 := range n1 {
		for _, v2 := range st.partners[v1] {
			if _, ok := slices.BinarySearch(n2, v2); ok {
				known++
				break
			}
		}
	}
	return known
}

// insert adds a later match's row at its canonical position in the tail.
//
//remp:hotpath
func (ls *labelStats) insert(m pair.Pair, o consistency.Observation) {
	at, _ := slices.BinarySearchFunc(ls.seeds[len(ls.ranks):], m, pair.Pair.Compare)
	at += len(ls.ranks)
	ls.seeds = slices.Insert(ls.seeds, at, m)
	ls.obs = slices.Insert(ls.obs, at, o)
	ls.dirty = true
}

// find returns the row of a participating seed with the given rank.
//
//remp:hotpath
func (ls *labelStats) find(m pair.Pair, rank int32) int {
	var row int
	if rank >= 0 {
		row, _ = slices.BinarySearch(ls.ranks, rank)
	} else {
		row, _ = slices.BinarySearchFunc(ls.seeds[len(ls.ranks):], m, pair.Pair.Compare)
		row += len(ls.ranks)
	}
	if row >= len(ls.seeds) || ls.seeds[row] != m {
		panic("core: seed statistics hold no row for a participating seed")
	}
	return row
}

// neighbors returns m's value sets under the label, following its
// direction: N_r1(u1) and N_r2(u2).
func (p *Prepared) neighbors(label ergraph.RelPair, m pair.Pair) (n1, n2 []kb.EntityID) {
	if label.Inverse {
		return p.K1.In(m.U1, label.R1), p.K2.In(m.U2, label.R2)
	}
	return p.K1.Out(m.U1, label.R1), p.K2.Out(m.U2, label.R2)
}

// canonicalSeeds lists the seed set in the canonical order: the initial
// matches in order (first occurrence), then the remaining matches sorted.
func canonicalSeeds(initial []pair.Pair, matches pair.Set) []pair.Pair {
	seeds := make([]pair.Pair, 0, len(initial)+matches.Len())
	seen := make(pair.Set, cap(seeds))
	for _, m := range initial {
		if !seen.Has(m) {
			seen.Add(m)
			seeds = append(seeds, m)
		}
	}
	for _, m := range matches.Sorted() {
		if !seen.Has(m) {
			seen.Add(m)
			seeds = append(seeds, m)
		}
	}
	return seeds
}
