package core

// monotoneInference implements the hybrid extension the paper sketches as
// future work (§IX): partial-order inference is layered on top of
// relational propagation. Worker-confirmed labels generalize along the
// similarity-vector dominance order — an unresolved pair whose vector
// dominates some confirmed match is itself a match; one dominated by a
// confirmed non-match is a non-match. Inference stays within an entity's
// competitor blocks (the same locality restriction that keeps the partial
// order's error rate near-perfect in Table V), and newly inferred matches
// respect the 1:1 constraint. Entity blocks may span shards, and the
// pass's fixpoint is sensitive to iteration order, so it deliberately
// walks the global vertex order — exactly the monolithic pass — routing
// each detach to the owning shard's engine.
func (l *Loop) monotoneInference() {
	if l.res.Confirmed.Len() == 0 && l.res.NonMatches.Len() == 0 {
		return
	}
	res, verts := l.res, l.p.Retained
	for i, v := range verts {
		if l.resolved(v) {
			continue
		}
		vec := l.p.Vector(i)
		// Blocks: pairs sharing either entity with v.
		for _, side := range l.p.blocks(i) {
			for _, j := range side {
				if int(j) == i {
					continue
				}
				w, wv := verts[j], l.p.Vector(int(j))
				switch {
				case res.Confirmed.Has(w) && vec.StrictlyDominates(wv):
					l.acceptMonotone(i)
				case res.NonMatches.Has(w) && wv.StrictlyDominates(vec):
					l.markNonMatch(i)
				}
				if l.resolved(v) {
					break
				}
			}
			if l.resolved(v) {
				break
			}
		}
	}
}

// acceptMonotone records vertex i as a monotone-inferred match under the
// 1:1 constraint; its provenance counts as propagation for reporting.
func (l *Loop) acceptMonotone(i int) {
	v := l.p.Retained[i]
	l.resolving(i)
	l.res.Propagated.Add(v)
	l.res.Matches.Add(v)
	l.pendingSeeds = append(l.pendingSeeds, v)
	l.runnerResolve(i, false)
	l.resolveCompetitors(i)
}
