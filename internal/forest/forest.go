// Package forest is a from-scratch random forest classifier standing in
// for the scikit-learn RandomForestClassifier that §VII-B trains on
// isolated entity pairs: CART trees grown on bootstrap samples with Gini
// impurity and √d feature sub-sampling, aggregated by majority vote. Only
// binary classification is supported, which is all entity resolution
// needs.
//
// Training works on ranks, not values: Train copies the matrix
// column-major once and gives every entry its rank among the feature's
// sorted distinct values. A node's split search is then a histogram over
// the ranks present in the node (row count and positive count per rank)
// and one cumulative sweep across them, which evaluates the same
// candidate thresholds — the midpoint of each two adjacent present values
// — with the same left/right membership and the same arithmetic as
// sorting the node's values and recounting the node per threshold would,
// at O(rows) per feature instead of O(rows · thresholds). Samples that
// repeat — the same row with the same label — are stored once, and a
// bootstrap sample is kept as the distinct samples drawn, each weighted by
// how often it was: a node's counts are sums of weights, so the search
// reads, in expectation, 63 % of the rows a draw-per-slot sample would
// hold — far fewer on data with repeated rows — and finds the same
// splits. Rows live in one buffer per forest, partitioned in place, and
// nodes in one flat arena.
package forest

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Options configures training; the zero value is replaced by defaults that
// mirror scikit-learn's (100 trees, √d features, unlimited depth,
// min-split 2).
type Options struct {
	NumTrees    int
	MaxDepth    int // 0 = unlimited
	MinSplit    int // minimum samples to attempt a split
	MaxFeatures int // 0 = floor(sqrt(d)) (at least 1)
	Seed        int64
}

func (o *Options) fill(dim int) {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.MinSplit <= 0 {
		o.MinSplit = 2
	}
	if o.MaxFeatures <= 0 {
		o.MaxFeatures = int(math.Sqrt(float64(dim)))
		if o.MaxFeatures < 1 {
			o.MaxFeatures = 1
		}
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 1 << 30
	}
}

// Forest is a trained random forest: every tree's nodes in one arena, in
// depth-first order with the left subtree first, so a split's left child is
// the node after it.
type Forest struct {
	nodes []node
	roots []int32
	dim   int
}

// node is a split (feature >= 0: go left when x[feature] <= val, to the
// next node, else to right) or a leaf (feature < 0: val is the fraction of
// positive samples).
type node struct {
	feature int32
	right   int32
	val     float64
}

// bin counts samples, and how many of them are positive: one rank's share
// of a node, or one row's weight in the current bootstrap sample.
type bin struct{ n, pos int32 }

// trainer is Train's working state: the ranked copy of the distinct
// samples plus the scratch every node of every tree reuses.
type trainer struct {
	opts Options
	rng  *rand.Rand
	// class maps each training sample to its distinct sample, of which
	// there are n; the rows below are those.
	class []int32
	n     int
	// Column-major copies, feature f at [f*n, (f+1)*n): the values, and each
	// value's index into dist[f], the feature's sorted distinct values.
	cols []float64
	rank []int32
	dist [][]float64
	y    []int32 // 1 for a positive row

	idx     []int32 // the distinct rows of the current tree's bootstrap sample; a node is a range of it
	weight  []bin   // by row: its draws into the current sample, and the positive ones
	perm    []int   // feature order of the current split attempt
	hist    []bin   // by rank, all zero between split searches
	present []int32 // the ranks with rows in the current node
	nodes   []node
}

// Train fits a forest on the sample matrix X (rows are feature vectors of
// equal length) and boolean labels y. It panics if inputs are empty,
// ragged or NaN — programmer error, not data error.
func Train(X [][]float64, y []bool, opts Options) *Forest {
	if len(X) == 0 || len(X) != len(y) {
		panic("forest: empty or mismatched training data")
	}
	dim := len(X[0])
	for _, row := range X {
		if len(row) != dim {
			panic("forest: ragged feature matrix")
		}
	}
	opts.fill(dim)
	t := newTrainer(X, y, opts)
	roots := make([]int32, opts.NumTrees)
	for i := range roots {
		// Bootstrap sample: as many draws with replacement as there are
		// samples.
		for range len(t.class) {
			t.weight[t.class[t.rng.Intn(len(t.class))]].n++
		}
		rows, pos := 0, 0
		for r := range t.weight {
			if w := &t.weight[r]; w.n > 0 {
				w.pos = w.n * t.y[r]
				t.idx[rows] = int32(r)
				rows++
				pos += int(w.pos)
			}
		}
		roots[i] = t.grow(0, rows, len(t.class), pos, 0)
		clear(t.weight)
	}
	return &Forest{nodes: t.nodes, roots: roots, dim: dim}
}

func newTrainer(X [][]float64, y []bool, opts Options) *trainer {
	dim := len(X[0])
	t := &trainer{
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		class: make([]int32, len(X)),
		dist:  make([][]float64, dim),
		perm:  make([]int, dim),
	}
	// Group the samples by label and row bits. Samples in one group fall on
	// the same side of every split, so a group counts as one row weighted
	// by its draws.
	var reps []int32
	ids := map[string]int32{}
	key := make([]byte, 0, 1+8*dim)
	for i, row := range X {
		key = append(key[:0], 0)
		if y[i] {
			key[0] = 1
		}
		for _, v := range row {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(reps))
			ids[string(key)] = id
			reps = append(reps, int32(i))
		}
		t.class[i] = id
	}
	n := len(reps)
	t.n = n
	t.cols = make([]float64, n*dim)
	t.rank = make([]int32, n*dim)
	t.y = make([]int32, n)
	t.idx = make([]int32, n)
	t.weight = make([]bin, n)
	for c, i := range reps {
		if y[i] {
			t.y[c] = 1
		}
	}
	order := make([]int32, n)
	distinct := make([]float64, 0, n*dim)
	maxDistinct := 0
	for f := 0; f < dim; f++ {
		col := t.cols[f*n : (f+1)*n]
		for c, i := range reps {
			v := X[i][f]
			if v != v {
				panic("forest: NaN feature")
			}
			col[c] = v
			order[c] = int32(c)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		rank := t.rank[f*n : (f+1)*n]
		start := len(distinct)
		for k, i := range order {
			if k == 0 || col[i] != col[order[k-1]] {
				distinct = append(distinct, col[i])
			}
			rank[i] = int32(len(distinct) - start - 1)
		}
		t.dist[f] = distinct[start:]
		maxDistinct = max(maxDistinct, len(t.dist[f]))
	}
	t.hist = make([]bin, maxDistinct)
	t.present = make([]int32, maxDistinct)
	return t
}

// grow builds the CART node over idx[lo:hi], size samples of which pos
// are positive, left subtree first, and returns its arena index.
func (t *trainer) grow(lo, hi, size, pos, depth int) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1, val: float64(pos) / float64(size)})
	if pos == 0 || pos == size || size < t.opts.MinSplit || depth >= t.opts.MaxDepth {
		return id
	}
	feat, thresh, ok := t.bestSplit(lo, hi, size, pos)
	if !ok {
		return id
	}
	mid, left := t.partition(lo, hi, feat, thresh)
	if mid == lo || mid == hi {
		return id
	}
	t.grow(lo, mid, int(left.n), int(left.pos), depth+1)
	right := t.grow(mid, hi, size-int(left.n), pos-int(left.pos), depth+1)
	t.nodes[id] = node{feature: int32(feat), right: right, val: thresh}
	return id
}

// bestSplit scans a random feature subset for the split minimizing
// weighted Gini impurity; among equals the first in scan order (sampled
// feature order, then ascending threshold) wins.
func (t *trainer) bestSplit(lo, hi, size, pos int) (feat int, thresh float64, ok bool) {
	t.shuffleFeatures()
	perm := t.perm
	if t.opts.MaxFeatures < len(perm) {
		perm = perm[:t.opts.MaxFeatures]
	}
	best := math.Inf(1)
	for _, f := range perm {
		m := t.fillHist(f, lo, hi)
		if g, th, improved := t.sweep(f, m, size, pos, best); improved {
			best, feat, thresh, ok = g, f, th, true
		}
	}
	return feat, thresh, ok
}

// shuffleFeatures refills perm with what rng.Perm(dim) returns, by the
// same draws (math/rand keeps that sequence fixed for a seeded source), so
// forests stay reproducible from Options.Seed without a slice per split.
func (t *trainer) shuffleFeatures() {
	for i := range t.perm {
		j := t.rng.Intn(i + 1)
		t.perm[i] = t.perm[j]
		t.perm[j] = i
	}
}

// fillHist adds the rows idx[lo:hi], by weight, to the rank histogram of
// feature f and returns how many ranks they occupy; present lists those
// ranks in ascending order.
//
//remp:hotpath
func (t *trainer) fillHist(f, lo, hi int) int {
	rank := t.rank[f*t.n : (f+1)*t.n]
	hist, present, weight := t.hist[:len(t.dist[f])], t.present, t.weight
	m := 0
	for _, i := range t.idx[lo:hi] {
		r := rank[i]
		b := &hist[r]
		if b.n == 0 {
			present[m] = r
			m++
		}
		b.n += weight[i].n
		b.pos += weight[i].pos
	}
	// Order the occupied ranks: sort them when they are few next to the
	// feature's distinct values, else read them off the histogram.
	if m*bits.Len(uint(m)) < len(hist) {
		slices.Sort(present[:m])
		return m
	}
	m = 0
	for r := range hist {
		if hist[r].n > 0 {
			present[m] = int32(r)
			m++
		}
	}
	return m
}

// sweep evaluates, in ascending order, the threshold between each two
// adjacent occupied ranks of feature f in a node of size rows, pos of
// them positive, and reports the first one whose weighted Gini is
// strictly below best. It leaves the histogram zeroed.
//
//remp:hotpath
func (t *trainer) sweep(f, m, size, pos int, best float64) (gini, thresh float64, improved bool) {
	dist, present := t.dist[f], t.present[:m]
	leftN, leftPos := 0, 0
	for k := 0; k+1 < m; k++ {
		b := t.hist[present[k]]
		leftN += int(b.n)
		leftPos += int(b.pos)
		lower, upper := dist[present[k]], dist[present[k+1]]
		th := (lower + upper) / 2
		ln, lp := leftN, leftPos
		if th >= upper || th < lower {
			// The midpoint rounded onto the upper value (adjacent floats)
			// or the sum overflowed: x <= th no longer cuts between the two.
			ln, lp = t.countLeft(dist, present, th)
		}
		if g := weightedGini(float64(ln), float64(lp), float64(size-ln), float64(pos-lp)); g < best {
			best, gini, thresh, improved = g, g, th, true
		}
	}
	for _, r := range present {
		t.hist[r] = bin{}
	}
	return gini, thresh, improved
}

// countLeft counts the node's rows, and the positive ones, with value <= th.
func (t *trainer) countLeft(dist []float64, present []int32, th float64) (n, pos int) {
	for _, r := range present {
		if dist[r] <= th {
			n += int(t.hist[r].n)
			pos += int(t.hist[r].pos)
		}
	}
	return n, pos
}

// weightedGini is the size-weighted Gini impurity of a split with ln rows
// (lp positive) on the left and rn rows (rp positive) on the right.
func weightedGini(ln, lp, rn, rp float64) float64 {
	gini := func(n, p float64) float64 {
		if n == 0 {
			return 0
		}
		q := p / n
		return 2 * q * (1 - q)
	}
	total := ln + rn
	return ln/total*gini(ln, lp) + rn/total*gini(rn, rp)
}

// partition reorders idx[lo:hi] so the rows with x[f] <= thresh come
// first; it returns where the right side starts and the left side's
// samples.
//
//remp:hotpath
func (t *trainer) partition(lo, hi, f int, thresh float64) (mid int, left bin) {
	col := t.cols[f*t.n : (f+1)*t.n]
	idx := t.idx
	i, j := lo, hi
	for i < j {
		if r := idx[i]; col[r] <= thresh {
			left.n += t.weight[r].n
			left.pos += t.weight[r].pos
			i++
		} else {
			j--
			idx[i], idx[j] = idx[j], r
		}
	}
	return i, left
}

// Prob returns the forest's estimated probability that x is positive
// (average of leaf probabilities across trees).
func (f *Forest) Prob(x []float64) float64 {
	if len(x) != f.dim {
		panic("forest: feature dimension mismatch")
	}
	sum := 0.0
	for _, i := range f.roots {
		n := &f.nodes[i]
		for n.feature >= 0 {
			if x[n.feature] <= n.val {
				i++
			} else {
				i = n.right
			}
			n = &f.nodes[i]
		}
		sum += n.val
	}
	return sum / float64(len(f.roots))
}

// Predict returns the majority-vote classification of x.
func (f *Forest) Predict(x []float64) bool { return f.Prob(x) >= 0.5 }
