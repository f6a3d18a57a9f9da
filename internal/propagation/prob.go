package propagation

import (
	"fmt"
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
// Storage is compressed sparse row, and the topology is fixed at BuildProb:
// row i's edges occupy colIdx/prob/length[rowStart[i]:rowStart[i+1]],
// ascending in colIdx, and the in-CSR (inRowStart/inSrc/inPos) mirrors it
// for reverse traversal, inPos naming the out-CSR slot of each in-edge.
// Only the weights change afterwards, in two ways: detaching a vertex
// zeroes its slots (prob 0, length +Inf — the ζ-bound prunes them with the
// comparison it already performs), and a Rewriter re-weights rows in
// place. length[e] = −log prob[e] is kept beside prob so the Dijkstra hot
// loop never calls math.Log.
type ProbGraph struct {
	g *ergraph.Graph

	// Topology: never written after BuildProb, shared by every Clone.
	rowStart   []int32
	colIdx     []int32
	inRowStart []int32
	inSrc      []int32 // source vertex of each in-edge
	inPos      []int32 // its out-CSR slot

	// Weights, one per out-CSR slot.
	prob   []float64
	length []float64 // −log prob, +Inf for removed slots

	// Live (positive-probability) degree per vertex, so DetachVertex can
	// skip vertices that are already bare without scanning their rows.
	outDeg []int32
	inDeg  []int32
}

// Params configures probabilistic graph construction.
type Params struct {
	// Priors maps candidate pairs to prior match probabilities Pr[m_p];
	// missing pairs take defaultPrior.
	Priors map[pair.Pair]float64
	// Consistency maps each edge label to its fitted (ε1, ε2); missing
	// labels fall back to ε = 0.5 on both sides.
	Consistency map[ergraph.RelPair]consistency.Estimate
}

const (
	// defaultPrior is the prior of a pair absent from Params.Priors.
	defaultPrior = 0.5
	// maxExactCandidates bounds the exact marginalization instance size
	// (candidate pairs in one neighborhood); larger instances use the
	// local-exclusion approximation.
	maxExactCandidates = 48
)

// BuildProb computes conditional probabilities for every edge of g. The
// KBs are not consulted: everything neighbor propagation needs — the label
// groups, the successor pairs and their dense indexes — is precomputed on
// the graph. It is BuildProbDense behind a lookup of every vertex's prior.
func BuildProb(g *ergraph.Graph, _, _ *kb.KB, params Params) *ProbGraph {
	priors := make([]float64, g.NumVertices())
	for i, v := range g.Vertices() {
		prior, ok := params.Priors[v]
		if !ok {
			prior = defaultPrior
		}
		priors[i] = prior
	}
	return BuildProbDense(g, priors, params.Consistency)
}

// BuildProbDense is BuildProb with the priors by vertex index (shared,
// read-only).
func BuildProbDense(g *ergraph.Graph, priors []float64, est map[ergraph.RelPair]consistency.Estimate) *ProbGraph {
	n := g.NumVertices()
	pg := &ProbGraph{g: g, rowStart: make([]int32, n+1)}
	rb := newRowBuilder(g, priors, est)
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

// FromProbs rebuilds a ProbGraph over g from its slot probabilities alone
// (Probs of the graph BuildProb made over an equal g): the topology is g's
// — row i's slots are the distinct targets of i's out-row, ascending, one
// for every graph edge because posteriors are strictly positive (see
// Rewriter) — and the secondary arrays come from the code BuildProb
// finishes with, so the result equals the original bit for bit. It takes
// ownership of prob. A slot count that does not match g, or a probability
// outside [0, 1], is an error.
func FromProbs(g *ergraph.Graph, prob []float64) (*ProbGraph, error) {
	n := g.NumVertices()
	pg := &ProbGraph{g: g, rowStart: make([]int32, n+1), colIdx: make([]int32, 0, len(prob)), prob: prob}
	for i := 0; i < n; i++ {
		lo := len(pg.colIdx)
		pg.colIdx = append(pg.colIdx, g.OutIndexesAt(i)...)
		slices.Sort(pg.colIdx[lo:])
		pg.colIdx = pg.colIdx[:lo+len(slices.Compact(pg.colIdx[lo:]))]
		pg.rowStart[i+1] = int32(len(pg.colIdx))
	}
	if len(prob) != len(pg.colIdx) {
		return nil, fmt.Errorf("propagation: %d edge probabilities for a graph of %d slots", len(prob), len(pg.colIdx))
	}
	for e, p := range prob {
		if !(p >= 0 && p <= 1) { // NaN fails both
			return nil, fmt.Errorf("propagation: slot %d holds probability %v, outside [0, 1]", e, p)
		}
	}
	pg.finish()
	return pg, nil
}

// Probs returns the probability of every slot, in CSR order (do not
// modify): with the graph, all FromProbs needs.
func (pg *ProbGraph) Probs() []float64 { return pg.prob }

// finish derives every secondary array (edge lengths, the in-CSR mirror,
// live degrees) from rowStart/colIdx/prob. It is shared by BuildProb and
// the test constructors.
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
	g     *ergraph.Graph
	prior []float64
	eps   []epsPair

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
func newRowBuilder(g *ergraph.Graph, priors []float64, est map[ergraph.RelPair]consistency.Estimate) *rowBuilder {
	n := g.NumVertices()
	rb := &rowBuilder{
		g:        g,
		prior:    priors,
		eps:      make([]epsPair, len(g.Labels())),
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
		post := rb.ms.posteriors(rb.cands, ep.e1, ep.e2, len(rb.cands) > maxExactCandidates)
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
	verts, idx := rb.g.Vertices(), rb.g.OutIndexesAt(i)
	rb.cands = rb.cands[:0]
	rb.colEnt = rb.colEnt[:0]
	row := -1
	var rowEnt kb.EntityID
	for _, pos := range rb.g.GroupEdges(k) {
		j := idx[pos]
		to := verts[j]
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
// zeroed, and a produced target without a slot panics.
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
		rb:      newRowBuilder(pg.g, priors, est),
		changed: make([]bool, len(pg.g.Labels())),
	}
}

// Apply brings the graph to the given estimates. detached flags, by
// vertex index, the vertices whose edges were removed from the
// propagation fabric; their slots stay zero in both directions, exactly
// as re-detaching them on a freshly built graph would leave them. It
// returns the vertices with at least one changed out-edge — the tails an
// Engine over the graph must invalidate (Engine.InvalidateTails) —
// ascending; the slice is reused by the next Apply.
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
		panic("propagation: rewrite recomputed an edge the CSR has no slot for")
	}
	return dirty
}

// Graph returns the underlying ER graph.
func (pg *ProbGraph) Graph() *ergraph.Graph { return pg.g }

// Clone returns a graph whose weights can be mutated while pg stays as it
// is: prob, length and the live degrees are copied, the topology is shared.
func (pg *ProbGraph) Clone() *ProbGraph {
	cp := *pg
	cp.prob, cp.length = slices.Clone(pg.prob), slices.Clone(pg.length)
	cp.outDeg, cp.inDeg = slices.Clone(pg.outDeg), slices.Clone(pg.inDeg)
	return &cp
}

// detachAt removes every live edge incident to vertex i, zeroing the slots
// in place through both mirrors.
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
}

// degreeAt returns the live out/in degree of vertex i.
func (pg *ProbGraph) degreeAt(i int) (out, in int32) {
	return pg.outDeg[i], pg.inDeg[i]
}
