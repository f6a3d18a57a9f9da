package propagation

import (
	"maps"
	"math"
	"slices"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// ProbGraph is the probabilistic ER graph: the ER graph with each directed
// edge (v, v′) annotated with the conditional probability Pr[m_v′ | m_v]
// obtained from neighbor propagation. When several labels connect the same
// ordered vertex pair, the most informative (maximum) probability is kept.
//
// Storage is compressed sparse row, built once by BuildProb: row i's edges
// occupy colIdx/prob/length[rowStart[i]:rowStart[i+1]], ascending in
// colIdx, with length[e] = −log prob[e] precomputed so the Dijkstra hot
// loop never calls math.Log. The in-CSR (inRowStart/inSrc/inPos) mirrors
// the topology for reverse traversal; inPos names the out-CSR slot of each
// in-edge, so the prob/length arrays stay the single source of truth.
// Edge deletions zero the slot in place (prob 0, length +Inf — the
// ζ-bound prunes them with the comparison it already performs); edges
// added after the build that have no slot go to a sparse overlay, which
// Fold merges back into a compacted CSR on full engine rebuilds.
type ProbGraph struct {
	g *ergraph.Graph
	// maxExact is the Params.MaxExactCandidates the graph was built with,
	// kept so an in-place rewrite marginalizes exactly as the build did.
	maxExact int

	rowStart []int32
	colIdx   []int32
	prob     []float64
	length   []float64 // −log prob, +Inf for removed slots

	// in-CSR mirror: vertex j's in-edges are inSrc/inPos[inRowStart[j]:
	// inRowStart[j+1]]; inSrc is the source vertex, inPos the out-CSR slot.
	inRowStart []int32
	inSrc      []int32
	inPos      []int32

	// Live (positive-probability) degree per vertex, overlay included;
	// maintained by setProbAt/detachAt so DetachVertex can skip vertices
	// that are already bare without scanning their rows.
	outDeg []int32
	inDeg  []int32

	// Overlay for edges added after the CSR was built (SetProb on a missing
	// slot). nil until first needed, so the hot loop pays one pointer test.
	ovOut   []map[int32]float64
	ovIn    []map[int32]struct{}
	ovCount int
}

// Params configures probabilistic graph construction.
type Params struct {
	// Priors maps candidate pairs to prior match probabilities Pr[m_p];
	// missing pairs default to DefaultPrior.
	Priors map[pair.Pair]float64
	// DefaultPrior is used for pairs absent from Priors (0.5 if zero).
	DefaultPrior float64
	// Consistency maps each edge label to its fitted (ε1, ε2); missing
	// labels fall back to ε = 0.5 on both sides.
	Consistency map[ergraph.RelPair]consistency.Estimate
	// MaxExactCandidates bounds the exact marginalization instance size
	// (number of candidate pairs in one neighborhood); larger instances use
	// the local-exclusion approximation. Default 48.
	MaxExactCandidates int
}

func (p *Params) fill() {
	if p.DefaultPrior == 0 {
		p.DefaultPrior = 0.5
	}
	if p.MaxExactCandidates == 0 {
		p.MaxExactCandidates = 48
	}
}

// BuildProb computes conditional probabilities for every edge of g. The
// KBs are not consulted: everything neighbor propagation needs — the label
// groups, the successor pairs and their dense indexes — is precomputed on
// the graph.
func BuildProb(g *ergraph.Graph, _, _ *kb.KB, params Params) *ProbGraph {
	params.fill()
	verts := g.Vertices()
	n := len(verts)
	pg := &ProbGraph{g: g, rowStart: make([]int32, n+1), maxExact: params.MaxExactCandidates}
	priors := make([]float64, n)
	for i, v := range verts {
		prior, ok := params.Priors[v]
		if !ok {
			prior = params.DefaultPrior
		}
		priors[i] = prior
	}
	rb := newRowBuilder(g, priors, params.Consistency, pg.maxExact)
	for i := 0; i < n; i++ {
		rb.row(i)
		slices.Sort(rb.js)
		for _, j := range rb.js {
			pg.colIdx = append(pg.colIdx, j)
			pg.prob = append(pg.prob, rb.rowVal[j])
		}
		pg.rowStart[i+1] = int32(len(pg.colIdx))
	}
	pg.finish()
	return pg
}

// finish derives every secondary array (edge lengths, the in-CSR mirror,
// live degrees) from rowStart/colIdx/prob and resets the overlay. It is
// shared by BuildProb, Fold and the test constructors.
func (pg *ProbGraph) finish() {
	n := pg.g.NumVertices()
	m := len(pg.colIdx)
	pg.length = make([]float64, m)
	pg.outDeg = make([]int32, n)
	pg.inDeg = make([]int32, n)
	cnt := make([]int32, n+1)
	for e := 0; e < m; e++ {
		if pg.prob[e] > 0 {
			pg.length[e] = -math.Log(pg.prob[e])
		} else {
			pg.length[e] = math.Inf(1)
		}
		cnt[pg.colIdx[e]+1]++
	}
	pg.inRowStart = make([]int32, n+1)
	for j := 0; j < n; j++ {
		pg.inRowStart[j+1] = pg.inRowStart[j] + cnt[j+1]
	}
	pg.inSrc = make([]int32, m)
	pg.inPos = make([]int32, m)
	fill := append([]int32(nil), pg.inRowStart[:n]...)
	for i := 0; i < n; i++ {
		for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
			j := pg.colIdx[e]
			k := fill[j]
			fill[j]++
			pg.inSrc[k] = int32(i)
			pg.inPos[k] = e
			if pg.prob[e] > 0 {
				pg.outDeg[i]++
				pg.inDeg[j]++
			}
		}
	}
	pg.ovOut, pg.ovIn, pg.ovCount = nil, nil, 0
}

// epsPair is one label's consistency point estimate, the only part of a
// fit neighbor propagation consumes.
type epsPair struct{ e1, e2 float64 }

// rowBuilder computes one vertex's out-row of conditional probabilities —
// the posteriors of each of its label groups, max-merged per target — on
// reusable scratch. It is the single kernel behind BuildProb (every row,
// emitted into a fresh CSR) and Rewriter (the rows a label change touches,
// written into the existing slots), so the two agree bit for bit by
// construction. Priors and estimates are dense: by vertex index and by
// the graph's label index.
type rowBuilder struct {
	g        *ergraph.Graph
	prior    []float64
	eps      []epsPair
	maxExact int

	// The row under construction: rowVal[j] is valid where rowStamp[j]
	// carries the current epoch, and js lists those targets (unsorted).
	rowVal   []float64
	rowStamp []uint32
	epoch    uint32
	js       []int32

	cands  []CandidatePair
	colEnt []kb.EntityID // distinct side-2 successors of the current group, by column
	ms     matchScratch
}

// newRowBuilder builds the kernel over g with per-vertex priors (shared,
// read-only) and the given estimates.
func newRowBuilder(g *ergraph.Graph, priors []float64, est map[ergraph.RelPair]consistency.Estimate, maxExact int) *rowBuilder {
	n := g.NumVertices()
	rb := &rowBuilder{
		g:        g,
		prior:    priors,
		eps:      make([]epsPair, len(g.Labels())),
		maxExact: maxExact,
		rowVal:   make([]float64, n),
		rowStamp: make([]uint32, n),
	}
	rb.setEstimates(est, nil)
	return rb
}

// setEstimates loads the labels' (ε1, ε2), falling back to 0.5 on both
// sides for labels est lacks, and reports into changed (when non-nil, one
// flag per label index) which labels moved.
func (rb *rowBuilder) setEstimates(est map[ergraph.RelPair]consistency.Estimate, changed []bool) (anyMoved bool) {
	for li, label := range rb.g.Labels() {
		ep := epsPair{0.5, 0.5}
		if e, ok := est[label]; ok {
			ep = epsPair{e.Eps1, e.Eps2}
		}
		moved := ep != rb.eps[li]
		rb.eps[li] = ep
		if changed != nil {
			changed[li] = moved
		}
		anyMoved = anyMoved || moved
	}
	return anyMoved
}

// row computes vertex i's out-row into rowVal/js. Labels process in the
// canonical (R1, R2, Inverse) order; the per-target result is a max-merge,
// so the order only fixes tie-free determinism, not the values.
//
//remp:hotpath
func (rb *rowBuilder) row(i int) {
	rb.epoch++
	if rb.epoch == 0 {
		clear(rb.rowStamp)
		rb.epoch = 1
	}
	rb.js = rb.js[:0]
	labels := rb.g.GroupLabels()
	for k, hi := rb.g.GroupsAt(i); k < hi; k++ {
		rb.group(i, k)
		ep := rb.eps[labels[k]]
		// Instances above the exact-marginalization bound take the
		// local-exclusion approximation whatever their dimensions.
		post := rb.ms.posteriors(rb.cands, ep.e1, ep.e2, len(rb.cands) > rb.maxExact)
		for ci, c := range rb.cands {
			j := c.Idx
			if post[ci] <= 0 {
				continue
			}
			if rb.rowStamp[j] != rb.epoch {
				rb.rowStamp[j] = rb.epoch
				rb.rowVal[j] = post[ci]
				rb.js = append(rb.js, j)
			} else if post[ci] > rb.rowVal[j] {
				rb.rowVal[j] = post[ci]
			}
		}
	}
}

// group assembles the propagation instance of vertex i's label group k
// into rb.cands: distinct successor entities on each side index the
// rows/columns in first-appearance order, and each successor pair becomes
// a candidate with its prior. The group's edges are ascending in To and
// distinct, so equal side-1 entities are adjacent: rows advance when U1
// changes, and only the side-2 entities need a lookup (column).
//
//remp:hotpath
func (rb *rowBuilder) group(i, k int) {
	out, idx := rb.g.OutAt(i), rb.g.OutIndexesAt(i)
	rb.cands = rb.cands[:0]
	rb.colEnt = rb.colEnt[:0]
	row := -1
	var rowEnt kb.EntityID
	for _, pos := range rb.g.GroupEdges(k) {
		to, j := out[pos].To, idx[pos]
		if row < 0 || to.U1 != rowEnt {
			row++
			rowEnt = to.U1
		}
		rb.cands = append(rb.cands, CandidatePair{Row: row, Col: rb.column(to.U2), Pair: to, Prior: rb.prior[j], Idx: j})
	}
}

// column returns u's column in the current group, assigning the next one
// on first appearance. The lookup scans the group's distinct side-2
// successors: one or two for the typical group and 107 for the largest
// hub group of any built-in dataset or benchmark workload, sizes at which
// a per-group map measured 45 % slower over a whole BuildProb.
//
//remp:hotpath
func (rb *rowBuilder) column(u kb.EntityID) int {
	c := slices.Index(rb.colEnt, u)
	if c < 0 {
		c = len(rb.colEnt)
		rb.colEnt = append(rb.colEnt, u)
	}
	return c
}

// Rewriter rewrites a ProbGraph in place when consistency estimates move:
// the label-scoped counterpart of rebuilding it with BuildProb. It keeps
// the estimates the graph currently reflects, so a rewrite touches only
// the rows owning a group under a label whose (ε1, ε2) changed, recomputes
// those rows with BuildProb's own kernel and writes the prob/length slots
// that differ — no new CSR, no secondary-array rebuild. A ProbGraph built
// by BuildProb has a slot for every graph edge (priors and estimates are
// clamped into [0.01, 0.99], so posteriors are strictly positive), hence
// the slot layout never depends on the estimates. rewriteRow enforces
// rather than assumes this: a slot the recomputed row does not produce is
// zeroed, and a produced target without a slot — possible only after a
// Fold compacted away a removed, non-detached label edge — panics.
//
// A Rewriter belongs to whoever mutates the graph (core.ShardState, over
// its own Clone), never to the shared prepared pipeline.
type Rewriter struct {
	pg      *ProbGraph
	rb      *rowBuilder
	changed []bool  // per label index: estimate moved in the current Apply
	tails   []int32 // result buffer of Apply
}

// NewRewriter returns a rewriter for pg. priors holds the prior of every
// vertex by index (shared, read-only) and est the estimates pg currently
// reflects: together, the Params it was built from.
func NewRewriter(pg *ProbGraph, priors []float64, est map[ergraph.RelPair]consistency.Estimate) *Rewriter {
	return &Rewriter{
		pg:      pg,
		rb:      newRowBuilder(pg.g, priors, est, pg.maxExact),
		changed: make([]bool, len(pg.g.Labels())),
	}
}

// Apply brings the graph to the given estimates. detached flags, by
// vertex index, the vertices whose edges were removed from the
// propagation fabric; their slots stay zero in both directions, exactly
// as re-detaching them on a freshly built graph would leave them. It
// returns the vertices with at least one changed out-edge — the tails an
// Engine over the graph must invalidate (Engine.InvalidateTails) —
// ascending; the slice is reused by the next Apply. Overlay edges are not
// derived from labels and are left alone while they live in the overlay;
// once a Fold gave one a CSR slot, rewriting its row removes it, as the
// row then equals what BuildProb computes.
func (rw *Rewriter) Apply(est map[ergraph.RelPair]consistency.Estimate, detached []bool) []int32 {
	rw.tails = rw.tails[:0]
	if !rw.rb.setEstimates(est, rw.changed) {
		return rw.tails
	}
	g := rw.pg.g
	labels := g.GroupLabels()
	for i, n := 0, g.NumVertices(); i < n; i++ {
		if detached[i] {
			continue // every slot of the row is, and stays, zero
		}
		for k, hi := g.GroupsAt(i); k < hi; k++ {
			if rw.changed[labels[k]] {
				if rw.rewriteRow(i, detached) {
					rw.tails = append(rw.tails, int32(i))
				}
				break
			}
		}
	}
	return rw.tails
}

// rewriteRow recomputes vertex i's row and stores the slots whose value
// moved, reporting whether any did. Every non-detached slot ends up holding
// what BuildProb would compute for it: the posterior, or nothing where the
// label groups no longer produce the target. The reverse — a recomputed
// target the row has no slot for — cannot be stored in place and panics.
//
//remp:hotpath
func (rw *Rewriter) rewriteRow(i int, detached []bool) bool {
	rb, pg := rw.rb, rw.pg
	rb.row(i)
	dirty := false
	stamped := 0
	for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
		j := pg.colIdx[e]
		p := 0.0
		if rb.rowStamp[j] == rb.epoch {
			stamped++
			p = rb.rowVal[j] // strictly positive: row keeps no other value
		}
		if detached[j] || p == pg.prob[e] {
			continue
		}
		if p > 0 {
			if pg.prob[e] <= 0 {
				pg.outDeg[i]++
				pg.inDeg[j]++
			}
			pg.length[e] = -math.Log(p)
		} else {
			pg.outDeg[i]--
			pg.inDeg[j]--
			pg.length[e] = math.Inf(1)
		}
		pg.prob[e] = p
		dirty = true
	}
	if stamped != len(rb.js) {
		panic("propagation: rewrite recomputed an edge whose CSR slot was compacted away")
	}
	return dirty
}

// Graph returns the underlying ER graph.
func (pg *ProbGraph) Graph() *ergraph.Graph { return pg.g }

// Clone returns a graph that can be mutated while pg stays as it is. What
// mutation writes into — prob, length, the live degrees, the overlay — is
// copied; the topology (rowStart, colIdx, the in-CSR) is shared, because
// nothing writes into those arrays: Fold installs fresh ones on the graph
// it compacts.
func (pg *ProbGraph) Clone() *ProbGraph {
	cp := *pg
	cp.prob, cp.length = slices.Clone(pg.prob), slices.Clone(pg.length)
	cp.outDeg, cp.inDeg = slices.Clone(pg.outDeg), slices.Clone(pg.inDeg)
	if pg.ovOut != nil {
		cp.ovOut = make([]map[int32]float64, len(pg.ovOut))
		cp.ovIn = make([]map[int32]struct{}, len(pg.ovIn))
		for i := range pg.ovOut {
			cp.ovOut[i], cp.ovIn[i] = maps.Clone(pg.ovOut[i]), maps.Clone(pg.ovIn[i])
		}
	}
	return &cp
}

// slot binary-searches row i for column j, returning the out-CSR position
// or -1 when the row never had the edge.
//
//remp:hotpath
func (pg *ProbGraph) slot(i, j int) int32 {
	lo, hi := pg.rowStart[i], pg.rowStart[i+1]
	for lo < hi {
		mid := lo + (hi-lo)/2 // overflow-safe for edge counts near int32 max
		if pg.colIdx[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < pg.rowStart[i+1] && pg.colIdx[lo] == int32(j) {
		return lo
	}
	return -1
}

// probAt returns Pr[m_j | m_i] by dense index, or 0 when the edge is
// absent or was removed.
//
//remp:hotpath
func (pg *ProbGraph) probAt(i, j int) float64 {
	if e := pg.slot(i, j); e >= 0 {
		return pg.prob[e]
	}
	if pg.ovOut != nil {
		return pg.ovOut[i][int32(j)]
	}
	return 0
}

// setProbAt writes Pr[m_j | m_i] by dense index: in place when the CSR has
// the slot, through the overlay otherwise. p ≤ 0 removes the edge, p > 1
// clamps to 1. Degree counters track live edges on both endpoints.
func (pg *ProbGraph) setProbAt(i, j int, p float64) {
	if p > 1 {
		p = 1
	}
	if e := pg.slot(i, j); e >= 0 {
		old := pg.prob[e]
		if p <= 0 {
			if old > 0 {
				pg.prob[e] = 0
				pg.length[e] = math.Inf(1)
				pg.outDeg[i]--
				pg.inDeg[j]--
			}
			return
		}
		if old <= 0 {
			pg.outDeg[i]++
			pg.inDeg[j]++
		}
		pg.prob[e] = p
		pg.length[e] = -math.Log(p)
		return
	}
	if p <= 0 {
		if pg.ovOut == nil {
			return
		}
		if _, ok := pg.ovOut[i][int32(j)]; ok {
			delete(pg.ovOut[i], int32(j))
			delete(pg.ovIn[j], int32(i))
			pg.ovCount--
			pg.outDeg[i]--
			pg.inDeg[j]--
		}
		return
	}
	if pg.ovOut == nil {
		n := pg.g.NumVertices()
		pg.ovOut = make([]map[int32]float64, n)
		pg.ovIn = make([]map[int32]struct{}, n)
	}
	if pg.ovOut[i] == nil {
		pg.ovOut[i] = make(map[int32]float64, 2)
	}
	if _, ok := pg.ovOut[i][int32(j)]; !ok {
		pg.ovCount++
		pg.outDeg[i]++
		pg.inDeg[j]++
		if pg.ovIn[j] == nil {
			pg.ovIn[j] = make(map[int32]struct{}, 2)
		}
		pg.ovIn[j][int32(i)] = struct{}{}
	}
	pg.ovOut[i][int32(j)] = p
}

// detachAt removes every live edge incident to vertex i — CSR slots are
// zeroed in place through both mirrors, overlay edges are deleted.
//
//remp:hotpath
func (pg *ProbGraph) detachAt(i int) {
	for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
		if pg.prob[e] > 0 {
			pg.prob[e] = 0
			pg.length[e] = math.Inf(1)
			pg.outDeg[i]--
			pg.inDeg[pg.colIdx[e]]--
		}
	}
	for k := pg.inRowStart[i]; k < pg.inRowStart[i+1]; k++ {
		e := pg.inPos[k]
		if pg.prob[e] > 0 {
			pg.prob[e] = 0
			pg.length[e] = math.Inf(1)
			pg.outDeg[pg.inSrc[k]]--
			pg.inDeg[i]--
		}
	}
	if pg.ovOut == nil {
		return
	}
	for j := range pg.ovOut[i] {
		delete(pg.ovIn[j], int32(i))
		pg.ovCount--
		pg.outDeg[i]--
		pg.inDeg[j]--
	}
	clear(pg.ovOut[i])
	for s := range pg.ovIn[i] {
		delete(pg.ovOut[s], int32(i))
		pg.ovCount--
		pg.outDeg[s]--
		pg.inDeg[i]--
	}
	clear(pg.ovIn[i])
}

// degreeAt returns the live out/in degree of vertex i (overlay included).
func (pg *ProbGraph) degreeAt(i int) (out, in int32) {
	return pg.outDeg[i], pg.inDeg[i]
}

// Fold merges the overlay back into a compacted CSR: removed slots are
// dropped, overlay edges gain real slots, and the secondary arrays are
// rebuilt. Re-estimation rebuilds call it so the steady-state hot path
// always runs on a pure CSR with an empty overlay.
func (pg *ProbGraph) Fold() {
	if pg.ovCount == 0 {
		pg.ovOut, pg.ovIn = nil, nil
		return
	}
	n := pg.g.NumVertices()
	newRowStart := make([]int32, n+1)
	newColIdx := make([]int32, 0, len(pg.colIdx)+pg.ovCount)
	newProb := make([]float64, 0, len(pg.colIdx)+pg.ovCount)
	type entry struct {
		j int32
		p float64
	}
	var row []entry
	for i := 0; i < n; i++ {
		row = row[:0]
		for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
			if pg.prob[e] > 0 {
				row = append(row, entry{pg.colIdx[e], pg.prob[e]})
			}
		}
		if pg.ovOut != nil {
			for j, p := range pg.ovOut[i] {
				row = append(row, entry{j, p})
			}
		}
		// CSR and overlay are disjoint by the setProbAt invariant, so a
		// plain sort (no dedupe) restores the ascending-column layout.
		slices.SortFunc(row, func(a, b entry) int { return int(a.j) - int(b.j) })
		for _, en := range row {
			newColIdx = append(newColIdx, en.j)
			newProb = append(newProb, en.p)
		}
		newRowStart[i+1] = int32(len(newColIdx))
	}
	pg.rowStart, pg.colIdx, pg.prob = newRowStart, newColIdx, newProb
	pg.finish()
}

// Prob returns Pr[m_to | m_from], or 0 when no edge exists.
func (pg *ProbGraph) Prob(from, to pair.Pair) float64 {
	i := pg.g.IndexOf(from)
	j := pg.g.IndexOf(to)
	if i < 0 || j < 0 {
		return 0
	}
	return pg.probAt(i, j)
}

// SetProb overrides an edge probability (used when re-estimating edges
// after truth inference).
func (pg *ProbGraph) SetProb(from, to pair.Pair, p float64) {
	i := pg.g.IndexOf(from)
	j := pg.g.IndexOf(to)
	if i < 0 || j < 0 || i == j {
		return
	}
	pg.setProbAt(i, j, p)
}

// NumEdges returns the number of positive-probability directed edges.
func (pg *ProbGraph) NumEdges() int {
	n := 0
	for _, p := range pg.prob {
		if p > 0 {
			n++
		}
	}
	return n + pg.ovCount
}

// Length returns −log Pr[m_to | m_from], the shortest-path edge length of
// §VI-B, or +Inf when the edge is absent.
func (pg *ProbGraph) Length(from, to pair.Pair) float64 {
	p := pg.Prob(from, to)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p)
}
