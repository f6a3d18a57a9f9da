package propagation

import (
	"slices"
	"sort"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// This file keeps the map-based neighbor propagation the dense kernel
// replaced, verbatim in behavior, as the oracle the kernel is tested
// against bit for bit: labels regrouped through a map per vertex,
// neighborhoods indexed through entity maps, and the permanents summed
// over a map of column masks visited in sorted order.

// buildProbOracle is the historical BuildProb.
func buildProbOracle(g *ergraph.Graph, params Params) *ProbGraph {
	n := g.NumVertices()
	pg := &ProbGraph{g: g, rowStart: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		row := map[int32]float64{}
		for _, grp := range outGroupsOracle(g, i) {
			nb := neighborhoodOracle(grp, params)
			var post []float64
			if len(nb.Cands) > maxExactCandidates {
				post = approxPosteriorsOracle(nb.Cands, weightsOracle(nb))
			} else {
				post = posteriorsOracle(nb)
			}
			for ci, c := range nb.Cands {
				if int(c.Idx) == i || post[ci] <= 0 {
					continue
				}
				if old, ok := row[c.Idx]; !ok || post[ci] > old {
					row[c.Idx] = post[ci]
				}
			}
		}
		js := make([]int32, 0, len(row))
		for j := range row {
			js = append(js, j)
		}
		slices.Sort(js)
		for _, j := range js {
			pg.colIdx = append(pg.colIdx, j)
			pg.prob = append(pg.prob, row[j])
		}
		pg.rowStart[i+1] = int32(len(pg.colIdx))
	}
	pg.finish()
	return pg
}

// labelGroup is the out-edges of one vertex under one label: each edge's
// target pair, with its dense to-index in the parallel To slice.
type labelGroup struct {
	Label ergraph.RelPair
	Edges []pair.Pair
	To    []int32
}

// outGroupsOracle regroups vertex i's out-edges by label through a map,
// groups sorted by RelPair.Less, edges in stored order.
func outGroupsOracle(g *ergraph.Graph, i int) []labelGroup {
	idx := g.OutIndexesAt(i)
	pos := map[ergraph.RelPair]int{}
	var groups []labelGroup
	for k, l := range g.OutLabelsAt(i) {
		label := g.Labels()[l]
		gi, ok := pos[label]
		if !ok {
			gi = len(groups)
			pos[label] = gi
			groups = append(groups, labelGroup{Label: label})
		}
		groups[gi].Edges = append(groups[gi].Edges, g.Vertices()[idx[k]])
		groups[gi].To = append(groups[gi].To, idx[k])
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Label.Less(groups[b].Label) })
	return groups
}

func neighborhoodOracle(grp labelGroup, params Params) *Neighborhood {
	rowIdx := map[kb.EntityID]int{}
	colIdx := map[kb.EntityID]int{}
	seen := map[int32]struct{}{}
	est, ok := params.Consistency[grp.Label]
	if !ok {
		est = consistency.Estimate{Eps1: 0.5, Eps2: 0.5}
	}
	nb := &Neighborhood{Eps1: est.Eps1, Eps2: est.Eps2}
	for k, to := range grp.Edges {
		j := grp.To[k]
		if _, dup := seen[j]; dup {
			continue
		}
		seen[j] = struct{}{}
		r, ok := rowIdx[to.U1]
		if !ok {
			r = len(rowIdx)
			rowIdx[to.U1] = r
		}
		c, ok := colIdx[to.U2]
		if !ok {
			c = len(colIdx)
			colIdx[to.U2] = c
		}
		prior, ok := params.Priors[to]
		if !ok {
			prior = defaultPrior
		}
		nb.Cands = append(nb.Cands, CandidatePair{Row: r, Col: c, Pair: to, Prior: prior, Idx: j})
	}
	return nb
}

func weightsOracle(nb *Neighborhood) []float64 {
	w := make([]float64, len(nb.Cands))
	for i, c := range nb.Cands {
		prior := clampProb(c.Prior)
		e1 := clampProb(nb.Eps1)
		e2 := clampProb(nb.Eps2)
		w[i] = prior / (1 - prior) * e1 / (1 - e1) * e2 / (1 - e2)
	}
	return w
}

func posteriorsOracle(nb *Neighborhood) []float64 {
	if len(nb.Cands) == 0 {
		return nil
	}
	weights := weightsOracle(nb)
	rows, cols := dimensions(nb.Cands)
	if rows <= MaxExactSide || cols <= MaxExactSide {
		return exactPosteriorsOracle(nb.Cands, weights, rows, cols)
	}
	return approxPosteriorsOracle(nb.Cands, weights)
}

type cellOracle struct {
	col int
	w   float64
}

func exactPosteriorsOracle(cands []CandidatePair, weights []float64, rows, cols int) []float64 {
	swapped := false
	if rows < cols {
		swapped = true
		rows, cols = cols, rows
	}
	byRow := make([][]cellOracle, rows)
	for i, c := range cands {
		r, cl := c.Row, c.Col
		if swapped {
			r, cl = cl, r
		}
		byRow[r] = append(byRow[r], cellOracle{col: cl, w: weights[i]})
	}
	zTotal := partitionOracle(byRow, -1, 0)
	out := make([]float64, len(cands))
	for i, c := range cands {
		r, cl := c.Row, c.Col
		if swapped {
			r, cl = cl, r
		}
		out[i] = weights[i] * partitionOracle(byRow, r, 1<<uint(cl)) / zTotal
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}

func partitionOracle(byRow [][]cellOracle, banRow int, banMask uint32) float64 {
	states := map[uint32]float64{banMask: 1}
	masks := []uint32{banMask}
	for r := range byRow {
		if r == banRow || len(byRow[r]) == 0 {
			continue
		}
		next := make(map[uint32]float64, len(states)*2)
		for _, mask := range masks {
			acc := states[mask]
			next[mask] += acc
			for _, c := range byRow[r] {
				bit := uint32(1) << uint(c.col)
				if mask&bit == 0 {
					next[mask|bit] += acc * c.w
				}
			}
		}
		states = next
		masks = masks[:0]
		for mask := range next {
			masks = append(masks, mask)
		}
		slices.Sort(masks)
	}
	total := 0.0
	for _, mask := range masks {
		total += states[mask]
	}
	return total
}

func approxPosteriorsOracle(cands []CandidatePair, weights []float64) []float64 {
	rows, cols := dimensions(cands)
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	for i, c := range cands {
		rowSum[c.Row] += weights[i]
		colSum[c.Col] += weights[i]
	}
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = weights[i] / (1 + rowSum[c.Row] + colSum[c.Col] - weights[i])
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}
