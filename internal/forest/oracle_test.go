package forest

// The trainer this package shipped before the rank-histogram rewrite,
// kept verbatim (renamed only) as the reference the property tests compare
// the production trainer against, bit for bit.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleForest is a trained random forest.
type oracleForest struct {
	trees []*oracleNode
	dim   int
}

type oracleNode struct {
	feature int     // split feature, -1 for leaves
	thresh  float64 // go left when x[feature] <= thresh
	left    *oracleNode
	right   *oracleNode
	prob    float64 // leaf: fraction of positive samples
}

// oracleTrain fits a forest on the sample matrix X (rows are feature vectors of
// equal length) and boolean labels y. It panics if inputs are empty or
// ragged — programmer error, not data error.
func oracleTrain(X [][]float64, y []bool, opts Options) *oracleForest {
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
	rng := rand.New(rand.NewSource(opts.Seed))
	f := &oracleForest{dim: dim}
	n := len(X)
	for t := 0; t < opts.NumTrees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees = append(f.trees, oracleGrow(X, y, idx, 0, &opts, rng))
	}
	return f
}

// oracleGrow recursively builds one CART oracleNode.
func oracleGrow(X [][]float64, y []bool, idx []int, depth int, opts *Options, rng *rand.Rand) *oracleNode {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	leafProb := float64(pos) / float64(len(idx))
	if pos == 0 || pos == len(idx) || len(idx) < opts.MinSplit || depth >= opts.MaxDepth {
		return &oracleNode{feature: -1, prob: leafProb}
	}

	feat, thresh, ok := oracleBestSplit(X, y, idx, opts.MaxFeatures, rng)
	if !ok {
		return &oracleNode{feature: -1, prob: leafProb}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &oracleNode{feature: -1, prob: leafProb}
	}
	return &oracleNode{
		feature: feat,
		thresh:  thresh,
		left:    oracleGrow(X, y, li, depth+1, opts, rng),
		right:   oracleGrow(X, y, ri, depth+1, opts, rng),
	}
}

// oracleBestSplit scans a random feature subset for the split minimizing
// weighted Gini impurity.
func oracleBestSplit(X [][]float64, y []bool, idx []int, maxFeatures int, rng *rand.Rand) (feat int, thresh float64, ok bool) {
	dim := len(X[0])
	perm := rng.Perm(dim)
	if maxFeatures < dim {
		perm = perm[:maxFeatures]
	}
	bestGini := math.Inf(1)
	vals := make([]float64, 0, len(idx))
	for _, f := range perm {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for vi := 0; vi+1 < len(vals); vi++ {
			if vals[vi] == vals[vi+1] {
				continue
			}
			t := (vals[vi] + vals[vi+1]) / 2
			g := oracleSplitGini(X, y, idx, f, t)
			if g < bestGini {
				bestGini, feat, thresh, ok = g, f, t, true
			}
		}
	}
	return feat, thresh, ok
}

// oracleSplitGini computes the weighted Gini impurity of splitting idx on
// feature f at threshold t.
func oracleSplitGini(X [][]float64, y []bool, idx []int, f int, t float64) float64 {
	var ln, lp, rn, rp float64
	for _, i := range idx {
		if X[i][f] <= t {
			ln++
			if y[i] {
				lp++
			}
		} else {
			rn++
			if y[i] {
				rp++
			}
		}
	}
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

// Prob returns the forest's estimated probability that x is positive
// (average of leaf probabilities across trees).
func (f *oracleForest) Prob(x []float64) float64 {
	if len(x) != f.dim {
		panic("forest: feature dimension mismatch")
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(f.trees))
}

func (n *oracleNode) predict(x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

// sameTree reports whether the arena tree rooted at id and the oracle's
// pointer tree are the same tree: same shape, same split features, and
// thresholds and leaf fractions equal as bit patterns.
func sameTree(f *Forest, id int32, o *oracleNode) bool {
	n := f.nodes[id]
	if o.feature < 0 || n.feature < 0 {
		return o.feature < 0 && n.feature < 0 && math.Float64bits(n.val) == math.Float64bits(o.prob)
	}
	return int(n.feature) == o.feature && math.Float64bits(n.val) == math.Float64bits(o.thresh) &&
		sameTree(f, id+1, o.left) && sameTree(f, n.right, o.right)
}

// randomColumn draws one feature column of a shape the split search must
// not get wrong: continuous, saturated 0/1 (the simL components), constant,
// a few levels, runs of adjacent floats (the midpoint of two neighbours
// rounds onto one of them, so x <= t puts the upper value left), signed
// zeros, and magnitudes whose sum overflows.
func randomColumn(rng *rand.Rand, n int) []float64 {
	col := make([]float64, n)
	kind := rng.Intn(8)
	base := rng.Float64()
	for i := range col {
		switch kind {
		case 0, 1:
			col[i] = rng.Float64()
		case 2:
			col[i] = float64(rng.Intn(2))
		case 3:
			col[i] = base
		case 4:
			col[i] = float64(rng.Intn(5)) / 4
		case 5:
			v := base
			for k := rng.Intn(4); k > 0; k-- {
				v = math.Nextafter(v, 2)
			}
			col[i] = v
		case 6:
			col[i] = []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64}[rng.Intn(5)]
		case 7:
			col[i] = []float64{-math.MaxFloat64, -math.MaxFloat64 / 2, math.MaxFloat64 / 2, math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0)}[rng.Intn(5)]
		}
	}
	return col
}

func randomMatrix(rng *rand.Rand, n, dim int) ([][]float64, []bool) {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
	}
	for f := 0; f < dim; f++ {
		for i, v := range randomColumn(rng, n) {
			X[i][f] = v
		}
	}
	// Duplicated rows: a bootstrap sample repeats rows anyway, but equal
	// rows with different labels make impure leaves no split can fix.
	for k := rng.Intn(n/3 + 1); k > 0; k-- {
		copy(X[rng.Intn(n)], X[rng.Intn(n)])
	}
	y := make([]bool, n)
	rate := rng.Float64()
	for i := range y {
		y[i] = rng.Float64() < rate
	}
	return X, y
}

// TestTrainMatchesOracleBitwise is the contract of the rank-histogram
// trainer: for any matrix and any options it grows exactly the trees the
// sort-and-recount trainer grew, so every probability it returns has the
// same bits.
func TestTrainMatchesOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	for trial := 0; trial < 300; trial++ {
		n := pick(1, 2, 2, 3, 5, 8, 16, 40, 90)
		dim := pick(1, 2, 3, 5, 11)
		X, y := randomMatrix(rng, n, dim)
		opts := Options{
			NumTrees:    pick(0, 1, 3, 10),
			MaxDepth:    pick(0, 0, 1, 2, 5),
			MinSplit:    pick(0, 2, 5, 10),
			MaxFeatures: pick(0, 0, 1, dim, dim+3),
			Seed:        rng.Int63(),
		}
		got, want := Train(X, y, opts), oracleTrain(X, y, opts)
		if len(got.roots) != len(want.trees) {
			t.Fatalf("trial %d: %d trees, oracle grew %d", trial, len(got.roots), len(want.trees))
		}
		for i, root := range got.roots {
			if !sameTree(got, root, want.trees[i]) {
				t.Fatalf("trial %d (n=%d dim=%d opts=%+v): tree %d differs from the oracle's", trial, n, dim, opts, i)
			}
		}
		fresh, _ := randomMatrix(rng, 20, dim)
		for _, x := range append(fresh, X...) {
			if g, w := got.Prob(x), want.Prob(x); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d: Prob(%v) = %v, oracle %v", trial, x, g, w)
			}
		}
	}
}
