package propagation

import "slices"

// InferAllFW runs the modified Floyd–Warshall of Algorithm 2: per-vertex
// bounded distance maps are seeded with single edges of length ≤ ζ and
// relaxed through every intermediate vertex, touching only the reachable
// sets. Because all lengths are nonnegative, any subpath of a ζ-bounded
// path is itself ζ-bounded, so restricting the maps to entries ≤ ζ is
// lossless. It is kept as the paper-faithful oracle that the Dijkstra
// engine is cross-checked against; it reads the CSR but works on plain
// maps, converted to balls at the end.
func (pg *ProbGraph) InferAllFW(tau float64) *Inferred {
	n := pg.g.NumVertices()
	zeta := zetaOf(tau)
	dist := make([]map[int32]float64, n)
	rev := make([]map[int32]float64, n)
	for i := 0; i < n; i++ {
		dist[i] = make(map[int32]float64)
		rev[i] = make(map[int32]float64)
	}
	// Lines 3–5: seed with single edges.
	for i := 0; i < n; i++ {
		for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
			if j, l := pg.colIdx[e], pg.length[e]; l <= zeta {
				dist[i][j] = l
				rev[j][int32(i)] = l
			}
		}
	}
	// Lines 6–11: relax through each intermediate k.
	for k := 0; k < n; k++ {
		dk := dist[k]
		rk := rev[k]
		if len(dk) == 0 || len(rk) == 0 {
			continue
		}
		for i, dik := range rk {
			for j, dkj := range dk {
				if i == j {
					continue
				}
				d := dik + dkj
				if d > zeta {
					continue
				}
				if cur, ok := dist[i][j]; !ok || d < cur {
					dist[i][j] = d
					rev[j][i] = d
				}
			}
		}
	}
	balls := make([]Ball, n)
	for i := 0; i < n; i++ {
		balls[i] = ballFromMap(dist[i])
	}
	inf := &Inferred{dist: balls}
	inf.buildRev()
	return inf
}

// ballFromMap converts a sparse distance map into the sorted Ball layout.
func ballFromMap(m map[int32]float64) Ball {
	b := make(Ball, 0, len(m))
	for j, d := range m {
		b = append(b, BallEntry{Idx: j, Dist: d})
	}
	slices.SortFunc(b, func(x, y BallEntry) int { return int(x.Idx - y.Idx) })
	return b
}
