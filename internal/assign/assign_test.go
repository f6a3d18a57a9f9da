package assign

import (
	"math"
	"math/rand"
	"testing"
)

func TestHungarianSimple(t *testing.T) {
	// Clear diagonal optimum.
	w := [][]float64{
		{0.9, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.7},
	}
	got := Hungarian(w)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Hungarian = %v, want %v", got, want)
		}
	}
	if s := AssignmentWeight(w, got); math.Abs(s-2.4) > 1e-9 {
		t.Errorf("weight = %v, want 2.4", s)
	}
}

func TestHungarianAntiDiagonal(t *testing.T) {
	// Greedy row-max picks (0,0)=0.9 then blocks the better total. Optimal
	// is anti-diagonal: 0.8 + 0.85 = 1.65 > 0.9 + 0.1.
	w := [][]float64{
		{0.9, 0.8},
		{0.85, 0.1},
	}
	got := Hungarian(w)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Hungarian = %v, want [1 0]", got)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// 2 rows, 3 columns: one column stays unused.
	w := [][]float64{
		{0.5, 0.9, 0.2},
		{0.6, 0.8, 0.1},
	}
	got := Hungarian(w)
	// Optimal: row0→col1 (0.9), row1→col0 (0.6) = 1.5.
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Hungarian = %v, want [1 0]", got)
	}

	// 3 rows, 2 columns: one row unmatched.
	w2 := [][]float64{
		{0.9, 0.1},
		{0.8, 0.7},
		{0.2, 0.6},
	}
	got2 := Hungarian(w2)
	unmatched := 0
	for _, j := range got2 {
		if j == -1 {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Fatalf("want exactly one unmatched row, got %v", got2)
	}
	if s := AssignmentWeight(w2, got2); math.Abs(s-1.6) > 1e-9 { // 0.9 + 0.7
		t.Errorf("weight = %v, want 1.6 (assignment %v)", s, got2)
	}
}

func TestHungarianZeroWeightUnassigned(t *testing.T) {
	w := [][]float64{
		{0, 0},
		{0, 0.5},
	}
	got := Hungarian(w)
	if got[0] != -1 {
		t.Errorf("zero-weight row should stay unassigned, got %v", got)
	}
	if got[1] != 1 {
		t.Errorf("row 1 should match col 1, got %v", got)
	}
}

func TestHungarianEmpty(t *testing.T) {
	if got := Hungarian(nil); got != nil {
		t.Errorf("Hungarian(nil) = %v", got)
	}
}

// Property: Hungarian matches brute force on random small matrices.
func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(20)) / 10 // 0.0 .. 1.9
			}
		}
		got := Hungarian(w)
		gotW := AssignmentWeight(w, got)
		bestW := bruteForceAssignment(w)
		if math.Abs(gotW-bestW) > 1e-9 {
			t.Fatalf("iter %d: Hungarian weight %v, brute force %v, matrix %v", iter, gotW, bestW, w)
		}
		// 1:1 constraint: no column used twice.
		seen := map[int]bool{}
		for _, j := range got {
			if j == -1 {
				continue
			}
			if seen[j] {
				t.Fatalf("column %d assigned twice: %v", j, got)
			}
			seen[j] = true
		}
	}
}

func bruteForceAssignment(w [][]float64) float64 {
	n, m := len(w), len(w[0])
	best := 0.0
	var rec func(i int, used uint, sum float64)
	rec = func(i int, used uint, sum float64) {
		if sum > best {
			best = sum
		}
		if i == n {
			return
		}
		rec(i+1, used, sum) // leave row i unmatched
		for j := 0; j < m; j++ {
			if used&(1<<j) == 0 {
				rec(i+1, used|1<<j, sum+w[i][j])
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func TestHopcroftKarpSimple(t *testing.T) {
	// Perfect matching exists.
	adj := [][]int{{0, 1}, {0}, {1, 2}}
	size, matchL := HopcroftKarp(3, 3, adj)
	if size != 3 {
		t.Fatalf("size = %d, want 3 (match %v)", size, matchL)
	}
	seen := map[int]bool{}
	for i, v := range matchL {
		if v == -1 {
			t.Fatalf("left %d unmatched", i)
		}
		if seen[v] {
			t.Fatalf("right %d matched twice", v)
		}
		seen[v] = true
	}
}

func TestHopcroftKarpBottleneck(t *testing.T) {
	// All left vertices compete for right vertex 0.
	adj := [][]int{{0}, {0}, {0}}
	size, _ := HopcroftKarp(3, 1, adj)
	if size != 1 {
		t.Errorf("size = %d, want 1", size)
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	size, matchL := HopcroftKarp(0, 0, nil)
	if size != 0 || len(matchL) != 0 {
		t.Errorf("empty graph: size=%d matchL=%v", size, matchL)
	}
	size, _ = HopcroftKarp(2, 2, [][]int{nil, nil})
	if size != 0 {
		t.Errorf("edgeless graph: size=%d", size)
	}
}

// Property: Hopcroft–Karp matches brute-force maximum matching on random
// small graphs.
func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		nl := 1 + rng.Intn(5)
		nr := 1 + rng.Intn(5)
		adj := make([][]int, nl)
		for i := range adj {
			for j := 0; j < nr; j++ {
				if rng.Intn(2) == 0 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		size, _ := HopcroftKarp(nl, nr, adj)
		want := bruteForceMatching(nl, nr, adj)
		if size != want {
			t.Fatalf("iter %d: HK=%d brute=%d adj=%v", iter, size, want, adj)
		}
	}
}

func bruteForceMatching(nl, nr int, adj [][]int) int {
	best := 0
	var rec func(i int, used uint, count int)
	rec = func(i int, used uint, count int) {
		if count > best {
			best = count
		}
		if i == nl {
			return
		}
		rec(i+1, used, count)
		for _, j := range adj[i] {
			if used&(1<<j) == 0 {
				rec(i+1, used|1<<j, count+1)
			}
		}
	}
	rec(0, 0, 0)
	return best
}

// AssignmentWeight sums the weights of an assignment returned by Hungarian.
func AssignmentWeight(weights [][]float64, rowMatch []int) float64 {
	total := 0.0
	for i, j := range rowMatch {
		if j >= 0 {
			total += weights[i][j]
		}
	}
	return total
}
