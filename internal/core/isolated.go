package core

import (
	"math/bits"
	"sort"

	"repro/internal/forest"
	"repro/internal/kb"
	"repro/internal/pair"
)

// classifyIsolated implements §VII-B: isolated entity pairs (no incident
// ER-graph edges) cannot be reached by propagation, so instead of polling
// workers one pair at a time, a random forest is trained per
// attribute-signature neighborhood on the labels gathered so far. For an
// isolated pair p, the neighborhood N_p contains the retained pairs whose
// shared-attribute sets have Jaccard ≥ ψ with p's; resolved matches in N_p
// are positives and — because propagation only ever confirms matches —
// unresolved pairs in N_p are treated as negatives to balance the classes.
func (p *Prepared) classifyIsolated(res *Result) {
	if len(p.isolated) == 0 {
		return
	}
	c := newIsolatedClassifier(p, res)

	// Respect the 1:1 constraint among classifier predictions: process
	// isolated pairs in descending forest confidence per entity.
	type prediction struct {
		p    pair.Pair
		prob float64
	}
	var preds []prediction
	for i, role := range c.role {
		if role != roleTarget {
			continue
		}
		model := c.modelFor(c.sigOf[i])
		if model == nil {
			continue
		}
		if prob := model.Prob(c.row(i)); prob >= 0.5 {
			preds = append(preds, prediction{p: p.Retained[i], prob: prob})
		}
	}

	sort.Slice(preds, func(i, j int) bool {
		if preds[i].prob != preds[j].prob {
			return preds[i].prob > preds[j].prob
		}
		return preds[i].p.Less(preds[j].p)
	})
	used1 := map[kb.EntityID]bool{}
	used2 := map[kb.EntityID]bool{}
	for _, pr := range preds {
		if used1[pr.p.U1] || used2[pr.p.U2] {
			continue
		}
		used1[pr.p.U1] = true
		used2[pr.p.U2] = true
		res.IsolatedPredicted.Add(pr.p)
		res.Matches.Add(pr.p)
	}
}

// A retained pair's part in the classifier: a training example of either
// class, or an unresolved isolated pair to predict. Unresolved pairs act as
// negatives — but only the non-isolated ones, which propagation had a
// chance to confirm.
const (
	rolePositive uint8 = iota
	roleNegative
	roleTarget
)

// isolatedClassifier is the working state of one classifyIsolated call,
// addressed by vertex index (Retained[i] is graph vertex i). One pass over
// the retained pairs fixes each pair's role, feature row and signature;
// after that a neighborhood is a set of signatures, and a training set is
// read off it without looking at a pair's attributes again.
type isolatedClassifier struct {
	p    *Prepared
	role []uint8
	// rows holds every pair's feature vector, dim wide: the similarity
	// vector over attribute matches plus the label-similarity prior (the
	// same Pr[m_p] the rest of the pipeline consumes), which adds a
	// continuous signal where the simL components saturate to 0/1.
	rows []float64
	dim  int
	// A signature is the set of attribute matches on which both entities of
	// a pair have a value, as a bitset in a string; sigs lists the distinct
	// ones in first-seen order and sigOf gives each pair's position in it.
	sigs  []string
	sigOf []int32

	// models memoizes fitted forests (nil: too thin to fit) by neighborhood,
	// a 0/1 byte per signature: signatures with the same neighbors, and
	// every thin neighborhood's fallback, share one fit. bySig is the
	// outcome per target signature.
	models map[string]*forest.Forest
	bySig  []*forest.Forest
	known  []bool
	fits   int // forest.Train calls

	mask     []byte
	pos, neg []int32
}

func newIsolatedClassifier(p *Prepared, res *Result) *isolatedClassifier {
	n := len(p.Retained)
	c := &isolatedClassifier{
		p:      p,
		role:   make([]uint8, n),
		dim:    p.Builder.Dim() + 1,
		sigOf:  make([]int32, n),
		models: map[string]*forest.Forest{},
	}
	c.rows = make([]float64, n*c.dim)
	ids := map[string]int32{}
	sig := make([]byte, (p.Builder.Dim()+7)/8)
	for i, q := range p.Retained {
		switch {
		case res.Matches.Has(q):
			c.role[i] = rolePositive
		case res.NonMatches.Has(q) || p.home[i] >= 0:
			c.role[i] = roleNegative
		default:
			c.role[i] = roleTarget
		}

		row := c.row(i)
		copy(row, p.Vector(i))
		row[c.dim-1] = p.prior[i]

		clear(sig)
		for _, a := range p.Builder.SharedAttrMatches(q) {
			sig[a/8] |= 1 << (a % 8)
		}
		id, ok := ids[string(sig)]
		if !ok {
			id = int32(len(c.sigs))
			ids[string(sig)] = id
			c.sigs = append(c.sigs, string(sig))
		}
		c.sigOf[i] = id
	}
	c.bySig = make([]*forest.Forest, len(c.sigs))
	c.known = make([]bool, len(c.sigs))
	c.mask = make([]byte, len(c.sigs))
	return c
}

func (c *isolatedClassifier) row(i int) []float64 {
	return c.rows[i*c.dim : (i+1)*c.dim]
}

// modelFor returns the forest that classifies targets with signature s:
// the one fitted on its ψ-neighborhood or, where that is too thin (e.g. a
// type whose matches are all isolated), the single forest trained on every
// resolved pair. This keeps recall on datasets like D-Y where whole types
// are disconnected. Nil means neither could be fitted.
func (c *isolatedClassifier) modelFor(s int32) *forest.Forest {
	if !c.known[s] {
		c.known[s] = true
		if c.bySig[s] = c.model(c.neighborhood(c.sigs[s])); c.bySig[s] == nil {
			c.bySig[s] = c.model(c.everyPair())
		}
	}
	return c.bySig[s]
}

// neighborhood returns (in c.mask, valid until the next call) the
// signatures whose Jaccard coefficient with target reaches ψ. A pair
// sharing no attribute has no neighborhood to speak of — every coefficient
// against the empty set is 0 — so it is given every pair's instead: its
// model is the all-pairs fallback, by definition rather than by falling
// through a thin fit.
func (c *isolatedClassifier) neighborhood(target string) []byte {
	shared := 0
	for k := 0; k < len(target); k++ {
		shared += bits.OnesCount8(target[k])
	}
	if shared == 0 {
		return c.everyPair()
	}
	for j, sig := range c.sigs {
		inter, union := 0, 0
		for k := 0; k < len(target); k++ {
			inter += bits.OnesCount8(sig[k] & target[k])
			union += bits.OnesCount8(sig[k] | target[k])
		}
		c.mask[j] = 1
		if float64(inter)/float64(union) < c.p.Cfg.Psi {
			c.mask[j] = 0
		}
	}
	return c.mask
}

// everyPair returns (in c.mask) the neighborhood of all signatures.
func (c *isolatedClassifier) everyPair() []byte {
	for j := range c.mask {
		c.mask[j] = 1
	}
	return c.mask
}

// model returns the forest of a neighborhood, fitting it on first use.
func (c *isolatedClassifier) model(mask []byte) *forest.Forest {
	m, ok := c.models[string(mask)]
	if !ok {
		m = c.fit(mask)
		c.models[string(mask)] = m
	}
	return m
}

// fit builds a neighborhood's training set, in Retained order, and fits a
// forest; it returns nil when either class is too thin. Negatives are
// subsampled to class parity: the paper uses unresolved pairs as
// non-matches explicitly "to balance the proportions of different labels"
// (§VII-B).
func (c *isolatedClassifier) fit(mask []byte) *forest.Forest {
	pos, neg := c.pos[:0], c.neg[:0]
	for i, role := range c.role {
		if mask[c.sigOf[i]] == 0 {
			continue
		}
		switch role {
		case rolePositive:
			pos = append(pos, int32(i))
		case roleNegative:
			neg = append(neg, int32(i))
		}
	}
	c.pos, c.neg = pos, neg
	// A usable neighborhood model needs a handful of examples on each
	// side; thinner ones defer to the global fallback.
	if len(pos) < 5 || len(neg) < 5 {
		return nil
	}
	// Deterministic subsampling of the majority class to parity.
	if len(neg) > len(pos) {
		neg = subsample(neg, len(pos))
	} else if len(pos) > len(neg) {
		pos = subsample(pos, len(neg))
	}
	X := make([][]float64, 0, len(pos)+len(neg))
	for _, i := range pos {
		X = append(X, c.row(int(i)))
	}
	for _, i := range neg {
		X = append(X, c.row(int(i)))
	}
	y := make([]bool, len(X))
	for i := range pos {
		y[i] = true
	}
	c.fits++
	return forest.Train(X, y, forest.Options{NumTrees: 100, Seed: c.p.Cfg.Seed})
}

// subsample keeps k evenly spaced elements of s, in place.
func subsample(s []int32, k int) []int32 {
	step := float64(len(s)) / float64(k)
	for i := 0; i < k; i++ {
		s[i] = s[int(float64(i)*step)]
	}
	return s[:k]
}
