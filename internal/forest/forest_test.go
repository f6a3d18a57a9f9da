package forest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestTrainLinearlySeparable(t *testing.T) {
	// Positive iff x0 > 0.5. Trivial for any tree ensemble.
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, x[0] > 0.5)
	}
	f := Train(X, y, Options{NumTrees: 30, Seed: 2})
	errs := 0
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if f.Predict(x) != (x[0] > 0.5) {
			errs++
		}
	}
	if errs > 10 {
		t.Errorf("separable data misclassified %d/200", errs)
	}
}

func TestTrainXor(t *testing.T) {
	// XOR needs depth ≥ 2 interactions — a single linear threshold fails,
	// trees handle it.
	var X [][]float64
	var y []bool
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, (a > 0.5) != (b > 0.5))
	}
	f := Train(X, y, Options{NumTrees: 50, Seed: 6, MaxFeatures: 2})
	errs := 0
	const n = 400
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		if f.Predict([]float64{a, b}) != ((a > 0.5) != (b > 0.5)) {
			errs++
		}
	}
	if float64(errs)/n > 0.1 {
		t.Errorf("XOR error rate %v, want < 0.1", float64(errs)/n)
	}
}

func TestPureLabelsGivePureLeaves(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []bool{false, false, true, true}
	f := Train(X, y, Options{NumTrees: 10, Seed: 3})
	if p := f.Prob([]float64{0.05}); p > 0.2 {
		t.Errorf("negative region prob = %v", p)
	}
	if p := f.Prob([]float64{0.95}); p < 0.8 {
		t.Errorf("positive region prob = %v", p)
	}
}

func TestAllSameLabel(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []bool{true, true, true}
	f := Train(X, y, Options{NumTrees: 5, Seed: 4})
	if !f.Predict([]float64{0.5}) {
		t.Error("all-positive training should predict positive")
	}
	if p := f.Prob([]float64{0.5}); p != 1 {
		t.Errorf("prob = %v, want 1", p)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	var y []bool
	for i := 0; i < 50; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(2) == 0)
	}
	f1 := Train(X, y, Options{NumTrees: 20, Seed: 9})
	f2 := Train(X, y, Options{NumTrees: 20, Seed: 9})
	probe := []float64{0.3, 0.6, 0.9}
	if f1.Prob(probe) != f2.Prob(probe) {
		t.Error("same seed, different forests")
	}
}

func TestMaxDepthLimitsTree(t *testing.T) {
	// Depth-1 stumps cannot fit XOR: accuracy should be near chance,
	// proving the limit is respected.
	var X [][]float64
	var y []bool
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, (a > 0.5) != (b > 0.5))
	}
	f := Train(X, y, Options{NumTrees: 30, MaxDepth: 1, Seed: 11})
	errs := 0
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		if f.Predict([]float64{a, b}) != ((a > 0.5) != (b > 0.5)) {
			errs++
		}
	}
	if float64(errs)/300 < 0.25 {
		t.Errorf("depth-1 forest fit XOR too well (err %v) — depth limit ignored?", float64(errs)/300)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { Train(nil, nil, Options{}) })
	assertPanics("mismatched", func() { Train([][]float64{{1}}, []bool{true, false}, Options{}) })
	assertPanics("ragged", func() { Train([][]float64{{1}, {1, 2}}, []bool{true, false}, Options{}) })
	assertPanics("NaN", func() { Train([][]float64{{0}, {math.NaN()}}, []bool{false, true}, Options{}) })
	f := Train([][]float64{{0}, {1}}, []bool{false, true}, Options{NumTrees: 2})
	assertPanics("dim mismatch", func() { f.Prob([]float64{1, 2}) })
}

func TestNumTrees(t *testing.T) {
	f := Train([][]float64{{0}, {1}}, []bool{false, true}, Options{NumTrees: 7})
	if len(f.roots) != 7 {
		t.Errorf("trained %d trees, want 7", len(f.roots))
	}
}

// benchMatrix is a training set shaped like the isolated-pair classifier's:
// saturated 0/1 similarity components plus one continuous prior column.
func benchMatrix(n, dim int) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		y[i] = i < n/2
		X[i] = make([]float64, dim)
		for f := 0; f < dim-1; f++ {
			if p := rng.Float64(); p < 0.3 || (y[i] && p < 0.7) {
				X[i][f] = 1
			} else if p > 0.9 {
				X[i][f] = rng.Float64()
			}
		}
		X[i][dim-1] = rng.Float64()
	}
	return X, y
}

var benchForest *Forest

func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{500, 16} {
		X, y := benchMatrix(n, 11)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchForest = Train(X, y, Options{NumTrees: 100, Seed: 1})
			}
		})
	}
}
