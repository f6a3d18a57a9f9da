package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/forest"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
)

// classifyIsolated implements §VII-B: isolated entity pairs (no incident
// ER-graph edges) cannot be reached by propagation, so instead of polling
// workers one pair at a time, a random forest is trained per
// attribute-signature neighborhood on the labels gathered so far. For an
// isolated pair p, the neighborhood N_p contains the retained pairs whose
// shared-attribute sets have Jaccard ≥ ψ with p's; resolved matches in N_p
// are positives and — because propagation only ever confirms matches —
// unresolved pairs in N_p are treated as negatives to balance the classes.
//
// The predictions are a function of the plan and of every vertex's role
// (roles), so a classification whose roles the plan has seen before —
// a rerun, or a sibling session that ended alike — reuses them.
func (p *Prepared) classifyIsolated(res *Result) {
	if len(p.isolated) == 0 {
		return
	}
	plan := p.isoInputs()
	roles := p.roles(res)
	matches, ok := plan.recall(roles)
	if !ok {
		matches = newIsoFitter(p, roles).predict(par.Pool())
		plan.remember(roles, matches)
	}
	for _, i := range matches {
		res.IsolatedPredicted.Add(p.Retained[i])
		res.Matches.Add(p.Retained[i])
	}
}

// A retained pair's part in the classifier: a training example of either
// class, or an unresolved isolated pair to predict. Unresolved pairs act as
// negatives — but only the non-isolated ones, which propagation had a
// chance to confirm.
const (
	rolePositive byte = iota
	roleNegative
	roleTarget
)

// roles returns every vertex's role under res, by vertex index: a
// vertex's home gives its default, then the members of NonMatches are
// marked, then those of Matches, so that a match wins. Each vertex's role
// is set by the last set holding it, whatever order a set is walked in.
func (p *Prepared) roles(res *Result) []byte {
	roles := make([]byte, len(p.Retained))
	for i, h := range p.home {
		if roles[i] = roleTarget; h >= 0 {
			roles[i] = roleNegative
		}
	}
	mark := func(set pair.Set, role byte) {
		for q := range set {
			if i := p.indexOf(q); i >= 0 {
				roles[i] = role
			}
		}
	}
	mark(res.NonMatches, roleNegative)
	mark(res.Matches, rolePositive)
	return roles
}

// indexOf returns the index of vertex q, or -1: a scan of the vertices
// sharing its K1 entity.
func (p *Prepared) indexOf(q pair.Pair) int {
	if int(q.U1)+1 >= len(p.byEntity1.start) {
		return -1
	}
	for _, i := range p.byEntity1.of(q.U1) {
		if p.Retained[i].U2 == q.U2 {
			return int(i)
		}
	}
	return -1
}

// isoMemoCap bounds the outcomes an isoPlan remembers. Sessions of one plan
// that end alike are the case worth serving; a handful of distinct endings
// covers it.
const isoMemoCap = 4

// isoPlan is the plan-level half of the classifier. Its inputs depend on
// the plan alone and are built once, on the first classification (isoInputs):
//
//   - A signature is the set of attribute matches on which both entities of
//     a pair have a value: the AND of their attribute-match masks. sigOf
//     gives each vertex's, as an id.
//   - A neighborhood is a set of signatures, as a 0/1 byte per signature id.
//     hoods lists the distinct ones; hoodOf gives each isolated vertex's
//     signature its ψ-neighborhood (-1 for a signature no isolated vertex
//     has), and all is the neighborhood of every signature.
//   - Isolated vertices with the same signature and the same row get the
//     same forest and so the same prediction: rowClass numbers those
//     (signature id, row id) groups, by position in p.isolated, and
//     rowClasses counts them.
//
// memo holds the predictions of the last few outcomes, most recent last,
// under mu.
type isoPlan struct {
	once   sync.Once
	sigOf  []int32
	hoodOf []int32
	hoods  [][]byte
	all    int32

	rowClass   []int32
	rowClasses int

	mu   sync.Mutex
	memo []isoOutcome
}

// isoOutcome is one classification: the roles it started from and the
// isolated vertices it predicted to be matches.
type isoOutcome struct {
	roles   string
	matches []int32
}

// isoInputs returns the classifier's plan-level state, building its inputs
// on first use.
func (p *Prepared) isoInputs() *isoPlan {
	c := &p.iso
	c.once.Do(func() {
		m1, m2 := p.Builder.AttrMasks(true), p.Builder.AttrMasks(false)
		c.sigOf = make([]int32, len(p.Retained))
		ids := map[string]int32{}
		var sigs []string
		sig := make([]byte, (p.dim+7)/8)
		for i, q := range p.Retained {
			a, b := m1.Of(q.U1), m2.Of(q.U2)
			for k := range sig {
				sig[k] = a[k] & b[k]
			}
			id, ok := ids[string(sig)]
			if !ok {
				id = int32(len(sigs))
				ids[string(sig)] = id
				sigs = append(sigs, string(sig))
			}
			c.sigOf[i] = id
		}

		hoodIDs := map[string]int32{}
		mask := make([]byte, len(sigs))
		hood := func() int32 {
			id, ok := hoodIDs[string(mask)]
			if !ok {
				id = int32(len(c.hoods))
				hoodIDs[string(mask)] = id
				c.hoods = append(c.hoods, append([]byte(nil), mask...))
			}
			return id
		}
		for j := range mask {
			mask[j] = 1
		}
		c.all = hood()
		c.hoodOf = make([]int32, len(sigs))
		for s := range c.hoodOf {
			c.hoodOf[s] = -1
		}
		for _, i := range p.isolated {
			if s := c.sigOf[i]; c.hoodOf[s] < 0 {
				c.hoodOf[s] = c.all
				if neighborhood(mask, sigs, sigs[s]) {
					c.hoodOf[s] = hood()
				}
			}
		}

		classes := map[[2]int32]int32{}
		c.rowClass = make([]int32, len(p.isolated))
		for k, i := range p.isolated {
			key := [2]int32{c.sigOf[i], p.rowOf[i]}
			id, ok := classes[key]
			if !ok {
				id = int32(len(classes))
				classes[key] = id
			}
			c.rowClass[k] = id
		}
		c.rowClasses = len(classes)
	})
	return c
}

// psi is the attribute-set Jaccard threshold ψ of the classifier's
// neighborhoods: the paper's 0.9.
const psi = 0.9

// neighborhood sets mask to the signatures whose Jaccard coefficient with
// target reaches ψ. A pair sharing no attribute has no neighborhood to
// speak of — every coefficient against the empty set is 0 — so it is given
// every pair's instead: its model is the all-pairs fallback, by definition
// rather than by falling through a thin fit. neighborhood reports false,
// leaving mask alone, in that case.
func neighborhood(mask []byte, sigs []string, target string) bool {
	shared := 0
	for k := 0; k < len(target); k++ {
		shared += bits.OnesCount8(target[k])
	}
	if shared == 0 {
		return false
	}
	for j, sig := range sigs {
		inter, union := 0, 0
		for k := 0; k < len(target); k++ {
			inter += bits.OnesCount8(sig[k] & target[k])
			union += bits.OnesCount8(sig[k] | target[k])
		}
		mask[j] = 1
		if float64(inter)/float64(union) < psi {
			mask[j] = 0
		}
	}
	return true
}

// recall returns the predictions remembered for roles.
func (c *isoPlan) recall(roles []byte) ([]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.memo {
		if o.roles == string(roles) {
			return o.matches, true
		}
	}
	return nil, false
}

// remember records the predictions for roles, forgetting the oldest
// outcome past isoMemoCap. Two sessions that missed on the same roles at
// once computed the same predictions; the second is not recorded again.
func (c *isoPlan) remember(roles []byte, matches []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.memo {
		if o.roles == string(roles) {
			return
		}
	}
	if len(c.memo) == isoMemoCap {
		c.memo = append(c.memo[:0], c.memo[1:]...)
	}
	c.memo = append(c.memo, isoOutcome{roles: string(roles), matches: matches})
}

// isoFitter is the working state of one classification the memo missed:
// the forests of the neighborhoods its targets need.
type isoFitter struct {
	p      *Prepared
	roles  []byte
	models []*forest.Forest // by neighborhood; nil: not needed, or too thin to fit
	fits   atomic.Int32     // forest.Train calls
}

func newIsoFitter(p *Prepared, roles []byte) *isoFitter {
	return &isoFitter{p: p, roles: roles, models: make([]*forest.Forest, len(p.iso.hoods))}
}

// minExamples is the fewest examples of each class a neighborhood needs for
// a forest of its own; a thinner one defers to the all-pairs forest.
const minExamples = 5

// predict returns the isolated vertices the forests predict to be matches.
// It first picks each target row class's forest: its signature's
// neighborhood's or, where that is too thin (e.g. a type whose matches
// are all isolated), the single forest trained on every resolved pair,
// which keeps recall on datasets like D-Y where whole types are
// disconnected. Then it fits the forests it picked concurrently through
// r, each task scoring its own classes; a fit is a pure
// function of the roles and the neighborhood, so the schedule does not
// show in the result. Last it respects the 1:1 constraint among
// predictions: isolated pairs are taken in descending forest confidence,
// and one whose entity is taken already is dropped.
func (f *isoFitter) predict(r par.Runner) []int32 {
	p, c := f.p, &f.p.iso
	thick := f.thickHoods()
	// scores[h] lists the row classes neighborhood h's forest scores, and
	// rep a vertex of each class. A class no forest scores keeps prob 0.
	scores := make([][]int32, len(c.hoods))
	rep := make([]int32, c.rowClasses)
	seen := make([]bool, c.rowClasses)
	for k, i := range p.isolated {
		cl := c.rowClass[k]
		if f.roles[i] != roleTarget || seen[cl] {
			continue
		}
		seen[cl], rep[cl] = true, int32(i)
		h := c.hoodOf[c.sigOf[i]]
		if !thick[h] {
			h = c.all
		}
		if thick[h] {
			scores[h] = append(scores[h], cl)
		}
	}
	// The all-pairs forest, the largest fit, goes first.
	var need []int32
	if len(scores[c.all]) > 0 {
		need = append(need, c.all)
	}
	for h := range scores {
		if int32(h) != c.all && len(scores[h]) > 0 {
			need = append(need, int32(h))
		}
	}
	probs := make([]float64, c.rowClasses)
	par.RunAll(r, len(need), func(k int) {
		h := need[k]
		model := f.fit(c.hoods[h])
		f.models[h] = model
		for _, cl := range scores[h] {
			probs[cl] = model.Prob(p.row(int(rep[cl])))
		}
	})

	type prediction struct {
		i    int32
		prob float64
	}
	var preds []prediction
	for k, i := range p.isolated {
		if prob := probs[c.rowClass[k]]; f.roles[i] == roleTarget && prob >= 0.5 {
			preds = append(preds, prediction{i: int32(i), prob: prob})
		}
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].prob != preds[j].prob {
			return preds[i].prob > preds[j].prob
		}
		return p.Retained[preds[i].i].Less(p.Retained[preds[j].i])
	})
	used1 := map[kb.EntityID]bool{}
	used2 := map[kb.EntityID]bool{}
	var matches []int32
	for _, pr := range preds {
		q := p.Retained[pr.i]
		if used1[q.U1] || used2[q.U2] {
			continue
		}
		used1[q.U1] = true
		used2[q.U2] = true
		matches = append(matches, pr.i)
	}
	return matches
}

// thickHoods reports, by neighborhood, whether it holds minExamples
// examples of each class: whether it gets a forest of its own. The
// examples are counted per signature once, then summed per neighborhood.
func (f *isoFitter) thickHoods() []bool {
	c := &f.p.iso
	pos := make([]int, len(c.hoodOf))
	neg := make([]int, len(c.hoodOf))
	for i, role := range f.roles {
		switch role {
		case rolePositive:
			pos[c.sigOf[i]]++
		case roleNegative:
			neg[c.sigOf[i]]++
		}
	}
	thick := make([]bool, len(c.hoods))
	for h, mask := range c.hoods {
		np, nn := 0, 0
		for s, in := range mask {
			if in != 0 {
				np += pos[s]
				nn += neg[s]
			}
		}
		thick[h] = np >= minExamples && nn >= minExamples
	}
	return thick
}

// fit builds a neighborhood's training set, in vertex order, and fits a
// forest; thickHoods vouched for both classes. Negatives are subsampled to
// class parity: the paper uses unresolved pairs as non-matches explicitly
// "to balance the proportions of different labels" (§VII-B).
func (f *isoFitter) fit(mask []byte) *forest.Forest {
	var pos, neg []int32
	for i, role := range f.roles {
		if mask[f.p.iso.sigOf[i]] == 0 {
			continue
		}
		switch role {
		case rolePositive:
			pos = append(pos, int32(i))
		case roleNegative:
			neg = append(neg, int32(i))
		}
	}
	// Deterministic subsampling of the majority class to parity.
	if len(neg) > len(pos) {
		neg = subsample(neg, len(pos))
	} else if len(pos) > len(neg) {
		pos = subsample(pos, len(neg))
	}
	X := make([][]float64, 0, len(pos)+len(neg))
	for _, i := range pos {
		X = append(X, f.p.row(int(i)))
	}
	for _, i := range neg {
		X = append(X, f.p.row(int(i)))
	}
	y := make([]bool, len(X))
	for i := range pos {
		y[i] = true
	}
	f.fits.Add(1)
	return forest.Train(X, y, forest.Options{NumTrees: 100, Seed: f.p.Cfg.Seed})
}

// subsample keeps k evenly spaced elements of s, in place.
func subsample(s []int32, k int) []int32 {
	step := float64(len(s)) / float64(k)
	for i := 0; i < k; i++ {
		s[i] = s[int(float64(i)*step)]
	}
	return s[:k]
}
