package selection

// OrderByClosureGain reorders a chosen µ-batch for answer deduction:
// questions whose answer closes the most open batch-mates come first,
// so a deduction layer consulted between answers can skip as many of
// the remaining questions as possible. A question closes a batch-mate
// when confirming it would resolve the mate — the mate's vertex lies
// in its inferred set (relational propagation) or shares an entity
// with it (the 1:1 competitor cascade). Scheduling is greedy on the
// expected closure count and ties keep the incoming order (the
// strategy's selection order), so the reordering is a pure function of
// the batch and determinism holds.
func OrderByClosureGain(batch []Candidate) []Candidate {
	if len(batch) < 2 {
		return batch
	}
	// Inferred[0] is a candidate's own vertex index; map each vertex of
	// the batch to its position to score inferred-set coverage.
	own := make(map[int]int, len(batch))
	for j, c := range batch {
		own[c.Inferred[0]] = j
	}
	// closable[i] is the set of batch positions question i would close.
	closable := make([][]bool, len(batch))
	for i, ci := range batch {
		c := make([]bool, len(batch))
		for _, idx := range ci.Inferred {
			if j, ok := own[idx]; ok && j != i {
				c[j] = true
			}
		}
		for j, cj := range batch {
			if j != i && (cj.Pair.U1 == ci.Pair.U1 || cj.Pair.U2 == ci.Pair.U2) {
				c[j] = true
			}
		}
		closable[i] = c
	}
	// Greedy schedule: repeatedly emit the unscheduled question with the
	// highest expected closure over mates not yet expected-closed — the
	// cascade only fires on a match, so the count is weighted by the
	// question's match probability. Ties keep the incoming order, so the
	// schedule is a pure function of the batch.
	scheduled := make([]bool, len(batch))
	closed := make([]bool, len(batch))
	out := make([]Candidate, 0, len(batch))
	for len(out) < len(batch) {
		best, bestGain := -1, -1.0
		for i := range batch {
			if scheduled[i] {
				continue
			}
			n := 0
			for j, c := range closable[i] {
				if c && !scheduled[j] && !closed[j] {
					n++
				}
			}
			if g := batch[i].Prob * float64(n); g > bestGain {
				best, bestGain = i, g
			}
		}
		scheduled[best] = true
		for j, c := range closable[best] {
			if c {
				closed[j] = true
			}
		}
		out = append(out, batch[best])
	}
	return out
}
