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
// A seed has rows, or owner rows to update, only under the labels whose
// relationships its entities carry, so each seed visits just those labels:
// byRel1 and byRel2 index the labels by their K1 and K2 relationship, and
// a seed's labels are those under K1.OutRels/InRels(U1) and
// K2.OutRels/InRels(U2). Any other label has empty value sets on both
// sides for the seed, in both directions, so skipping it is exact.
//
// It is per-loop state: it lives in the Loop, never in the Prepared.
type seedStats struct {
	p *Prepared
	// partners indexes the seed set by side-1 entity: the side-2 entities
	// it is matched to, each with its seed's rank. "Does v1 have a seed
	// counterpart among these values" is a lookup per partner (one, under
	// the 1:1 constraint), not a probe per value.
	partners partnerIndex
	// labels is addressed by the label's index in p.Graph.Labels().
	labels []labelStats
	// byRel1[r] and byRel2[r] list the indexes of the labels whose K1
	// (K2) relationship is r, in both directions.
	byRel1, byRel2 [][]int32
	// reached collects one seed's labels; stamp[li] == visit marks label
	// li as collected for the current seed.
	reached []int32
	stamp   []uint32
	visit   uint32
}

// partner is a seed seen from its side-1 entity: its side-2 entity and its
// rank — an initial match's first index in the gathered seed list, a later
// match's -1.
type partner struct {
	u2   kb.EntityID
	rank int32
}

// partnerIndex lists each side-1 entity's partners. The first sits in
// first, by entity (rank noPartner where there is none); a second moves
// the list, the first included, to more and marks first morePartners. So
// the common case under the 1:1 constraint is an array read, and the
// index costs one partner per side-1 entity, not a map entry per seed.
type partnerIndex struct {
	first []partner
	more  map[kb.EntityID][]partner
}

// The ranks first holds where an entity has no partner, or more than one.
const (
	noPartner    = -2
	morePartners = -3
)

func newPartnerIndex(entities int) partnerIndex {
	x := partnerIndex{first: make([]partner, entities)}
	for i := range x.first {
		x.first[i].rank = noPartner
	}
	return x
}

// of returns v1's partners, read-only.
//
//remp:hotpath
func (x *partnerIndex) of(v1 kb.EntityID) []partner {
	switch x.first[v1].rank {
	case noPartner:
		return nil
	case morePartners:
		return x.more[v1]
	}
	return x.first[v1 : v1+1 : v1+1]
}

// add appends q to v1's partners.
func (x *partnerIndex) add(v1 kb.EntityID, q partner) {
	switch x.first[v1].rank {
	case noPartner:
		x.first[v1] = q
	case morePartners:
		x.more[v1] = append(x.more[v1], q)
	default:
		if x.more == nil {
			x.more = make(map[kb.EntityID][]partner)
		}
		x.more[v1] = []partner{x.first[v1], q}
		x.first[v1].rank = morePartners
	}
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

// newSeedStats gathers the observations of the given seeds, in their
// order; a seed listed again counts once, at its first occurrence, whose
// index is its rank. A loop's statistics start from Prepared.Initial;
// the from-scratch fits gather over any seed list and never fold. Each
// seed appends its rows to the labels it reaches, so every list is in
// seed order.
func newSeedStats(p *Prepared, seeds []pair.Pair) *seedStats {
	labels := p.Graph.Labels()
	st := &seedStats{
		p:        p,
		partners: newPartnerIndex(p.K1.NumEntities()),
		labels:   make([]labelStats, len(labels)),
		byRel1:   make([][]int32, p.K1.NumRels()),
		byRel2:   make([][]int32, p.K2.NumRels()),
		stamp:    make([]uint32, len(labels)),
	}
	for li, label := range labels {
		st.byRel1[label.R1] = append(st.byRel1[label.R1], int32(li))
		st.byRel2[label.R2] = append(st.byRel2[label.R2], int32(li))
	}
	firsts := make([]int32, 0, len(seeds))
	for i, m := range seeds {
		if slices.ContainsFunc(st.partners.of(m.U1), func(q partner) bool { return q.u2 == m.U2 }) {
			continue // a repeated seed keeps its first position
		}
		st.partners.add(m.U1, partner{u2: m.U2, rank: int32(i)})
		firsts = append(firsts, int32(i))
	}
	for _, i := range firsts {
		m := seeds[i]
		for _, li := range st.labelsOf(m) {
			n1, n2 := p.neighbors(labels[li], m)
			if len(n1) == 0 && len(n2) == 0 {
				continue
			}
			ls := &st.labels[li]
			ls.seeds = append(ls.seeds, m)
			ls.ranks = append(ls.ranks, i)
			ls.obs = append(ls.obs, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: st.knownL(n1, n2)})
		}
	}
	return st
}

// labelsOf returns the labels m can touch: those whose K1 relationship
// m's side-1 entity carries, or whose K2 relationship its side-2 entity
// carries, in either direction. The slice is reused by the next call.
func (st *seedStats) labelsOf(m pair.Pair) []int32 {
	st.visit++
	if st.visit == 0 { // wrapped: no stamp may alias the new visit
		clear(st.stamp)
		st.visit = 1
	}
	st.reached = st.reached[:0]
	st.collect(st.byRel1, st.p.K1.OutRels(m.U1))
	st.collect(st.byRel1, st.p.K1.InRels(m.U1))
	st.collect(st.byRel2, st.p.K2.OutRels(m.U2))
	st.collect(st.byRel2, st.p.K2.InRels(m.U2))
	return st.reached
}

// collect adds the labels index lists under rels to the current visit's.
func (st *seedStats) collect(index [][]int32, rels []kb.RelID) {
	for _, r := range rels {
		for _, li := range index[r] {
			if st.stamp[li] != st.visit {
				st.stamp[li] = st.visit
				st.reached = append(st.reached, li)
			}
		}
	}
}

// fold adds the pending matches to the seed set one at a time, keeping
// every label's observations exact for the set so far: the new seed adds
// its own row to each label it participates in, and each existing seed
// that has it as a neighbor pair gains one known value — unless the seed's
// side-1 entity already had a seed counterpart there. Nothing else can
// change, and only the labels m reaches (labelsOf) can hold either kind of
// change. Labels whose list changed are marked dirty.
func (st *seedStats) fold(pending []pair.Pair) {
	labels := st.p.Graph.Labels()
	for _, m := range pending {
		if slices.ContainsFunc(st.partners.of(m.U1), func(q partner) bool { return q.u2 == m.U2 }) {
			continue
		}
		st.partners.add(m.U1, partner{u2: m.U2, rank: -1})
		for _, li := range st.labelsOf(m) {
			label := labels[li]
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
				for _, q := range st.partners.of(a) {
					owner := pair.Pair{U1: a, U2: q.u2}
					if _, linked := slices.BinarySearch(p2, q.u2); !linked || owner == m { // m's own row already counts m
						continue
					}
					_, n2 := st.p.neighbors(label, owner)
					if !st.hasOtherPartner(m, n2) {
						ls.obs[ls.find(owner, q.rank)].KnownL++
						ls.dirty = true
					}
				}
			}
		}
	}
}

// hasOtherPartner reports whether m's side-1 entity has a seed counterpart
// among the (sorted) values n2 other than m's own side-2 entity.
//
//remp:hotpath
func (st *seedStats) hasOtherPartner(m pair.Pair, n2 []kb.EntityID) bool {
	for _, q := range st.partners.of(m.U1) {
		if q.u2 == m.U2 {
			continue
		}
		if _, ok := slices.BinarySearch(n2, q.u2); ok {
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
		for _, q := range st.partners.of(v1) {
			if _, ok := slices.BinarySearch(n2, q.u2); ok {
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
