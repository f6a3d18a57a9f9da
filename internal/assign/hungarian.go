// Package assign provides combinatorial assignment algorithms used by the
// Remp pipeline: the Hungarian algorithm (Kuhn–Munkres) for maximum-weight
// 1:1 bipartite assignment (§IV-C attribute matching) and Hopcroft–Karp
// maximum-cardinality bipartite matching (used via König's theorem to
// compute the optimal-monotone-classifier error rate of Table V).
package assign

import "math"

// Hungarian solves the maximum-weight assignment problem on an n×m weight
// matrix (rows: side 1, columns: side 2). It returns rowMatch where
// rowMatch[i] is the column assigned to row i, or -1 if row i is left
// unassigned. Negative weights are treated as "better left unassigned":
// the algorithm pads the matrix to square with zero-weight dummy columns
// and never assigns a pair whose weight is below zero.
//
// Complexity O(max(n,m)^3), matching the paper's stated bound for 1:1
// attribute matching.
func Hungarian(weights [][]float64) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	m := len(weights[0])
	size := n
	if m > size {
		size = m
	}
	// Convert to a min-cost square matrix: cost = maxW − w, dummies cost
	// maxW (equivalent to weight 0).
	maxW := 0.0
	for i := range weights {
		for j := range weights[i] {
			if weights[i][j] > maxW {
				maxW = weights[i][j]
			}
		}
	}
	cost := make([][]float64, size)
	for i := range cost {
		cost[i] = make([]float64, size)
		for j := 0; j < size; j++ {
			w := 0.0
			if i < n && j < m {
				w = weights[i][j]
				if w < 0 {
					w = 0
				}
			}
			cost[i][j] = maxW - w
		}
	}

	// Jonker-style O(n^3) shortest augmenting path implementation of the
	// Hungarian algorithm with potentials (1-indexed internal arrays).
	u := make([]float64, size+1)
	v := make([]float64, size+1)
	p := make([]int, size+1) // p[j] = row matched to column j
	way := make([]int, size+1)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, size+1)
		used := make([]bool, size+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowMatch := make([]int, n)
	for i := range rowMatch {
		rowMatch[i] = -1
	}
	for j := 1; j <= size; j++ {
		i := p[j] - 1
		if i < 0 || i >= n || j-1 >= m {
			continue
		}
		// Leave non-positive-weight assignments (dummies or sub-zero
		// originals) unmatched.
		if weights[i][j-1] > 0 {
			rowMatch[i] = j - 1
		}
	}
	return rowMatch
}
