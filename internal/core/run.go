package core

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/consistency"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/selection"
)

// Result is the outcome of a full Remp run.
type Result struct {
	// Matches is the final match set: worker-confirmed, propagated, and
	// (when enabled) classifier-predicted isolated matches.
	Matches pair.Set
	// Confirmed are matches labeled directly by workers.
	Confirmed pair.Set
	// Propagated are matches inferred through the ER graph.
	Propagated pair.Set
	// IsolatedPredicted are matches predicted by the random forest.
	IsolatedPredicted pair.Set
	// NonMatches are pairs resolved negative by workers, or by the 1:1
	// entity constraint when a competitor was confirmed.
	NonMatches pair.Set
	// Questions is the number of distinct questions asked.
	Questions int
	// Deduced is the number of selected questions skipped because their
	// verdict was already implied by recorded answers: crowd questions
	// saved by deduction, always 0 unless Config.Deduce (Options.Deduce
	// in the public API) is on.
	Deduced int
	// Loops is the number of human-machine loops executed.
	Loops int
}

// Run executes the human–machine loop against the Asker on a new Loop
// (Loop.Run) and returns the final result. It panics if the loop fails,
// which the in-process runner never does; a caller whose Config.Runner
// can fail calls NewLoop().Run for the error instead.
//
// Every call is an independent loop over the shared, read-only pipeline:
// repeated and concurrent Runs return what a freshly prepared pipeline
// would.
func (p *Prepared) Run(asker Asker) *Result {
	res, err := p.NewLoop().Run(asker)
	if err != nil {
		panic(err)
	}
	return res
}

// Run is the loop's synchronous driver: it answers the question at the
// loop's cursor — Batch()[0], the next question in selection order —
// with the Asker until the loop is done, so every answer is applied as it
// arrives and a question an earlier answer resolved is never asked. It
// terminates when no unresolved pair can be inferred by relational match
// propagation (the paper's stop criterion), when the question budget is
// exhausted, or when MaxLoops is reached. A shard runner that fails
// permanently — one that never started, or a remote runner that lost its
// whole cluster — ends the run with the loop's Err.
func (l *Loop) Run(asker Asker) (*Result, error) {
	for !l.Done() {
		if err := l.Err(); err != nil {
			return nil, err
		}
		batch := l.Batch()
		if len(batch) == 0 {
			// Unreachable by the Loop invariant (an open loop always has an
			// unanswered question); guard against a stalled machine rather
			// than spinning.
			panic("core: loop awaiting answers with no open question")
		}
		// The cursor came from Batch, so only a runner failure refuses it.
		if err := l.Deliver(batch[0], asker.Ask(batch[0])); err != nil {
			return nil, err
		}
	}
	return l.Result(), nil
}

// padBatch extends a selection to mu questions with the highest-prior
// candidates of all not yet chosen, equal priors in pair order — never in
// the order of all, which may be any.
func padBatch(all, chosen []selection.Candidate, mu int) []selection.Candidate {
	taken := make(pair.Set, len(chosen))
	for _, c := range chosen {
		taken.Add(c.Pair)
	}
	rest := make([]selection.Candidate, 0, len(all))
	for _, c := range all {
		if !taken.Has(c.Pair) {
			rest = append(rest, c)
		}
	}
	slices.SortFunc(rest, func(a, b selection.Candidate) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return a.Pair.Compare(b.Pair)
	})
	return append(chosen, rest[:min(len(rest), mu-len(chosen))]...)
}

// confirmMatch records a worker-confirmed match and propagates it: every
// unresolved pair with Pr[m_p | m_q] ≥ τ becomes an inferred match,
// processed in decreasing probability so that the 1:1 entity constraint
// lets the most probable pair of an entity win. Competitor vertices
// sharing an entity with a new match are resolved as non-matches and
// detached (the "re-estimate edges with new matches and non-matches" step
// of §VII-A). Propagation reads the shard engine's last-Sync snapshot —
// the runner returns the ball in distance order, unfiltered — and the
// whole cascade stays within q's shard by construction.
func (l *Loop) confirmMatch(qi int) {
	q := l.p.Retained[qi]
	l.resolving(qi)
	l.res.Confirmed.Add(q)
	l.res.Matches.Add(q)
	l.pendingSeeds = append(l.pendingSeeds, q)
	l.resolveCompetitors(qi)
	l.runnerResolve(qi, false)
	s := l.home(qi)
	if s < 0 || l.shards[s].settled || l.err != nil {
		return // an isolated q has no ball to propagate along
	}
	ball, err := l.r.Ball(s, q)
	if err != nil {
		l.fail(err)
		return
	}
	for _, pj := range ball { // smaller distance first
		if l.resolved(pj) {
			continue
		}
		j := l.p.Graph.IndexOf(pj)
		l.resolving(j)
		l.res.Propagated.Add(pj)
		l.res.Matches.Add(pj)
		l.pendingSeeds = append(l.pendingSeeds, pj)
		l.runnerResolve(j, false)
		l.resolveCompetitors(j)
	}
}

// resolveCompetitors marks every unresolved vertex sharing an entity with
// the match m (a vertex index) as a non-match and detaches it from the
// propagation fabric. Competitor chains may cross shards (the partition
// follows relational edges only); detaches run on the serial
// answer-application path and route to the owning shard through the
// runner, so cross-shard competitors resolve exactly as in the monolithic
// loop.
func (l *Loop) resolveCompetitors(m int) {
	for _, side := range l.p.blocks(m) {
		for _, j := range side {
			if int(j) == m || l.resolved(l.p.Retained[j]) {
				continue
			}
			l.markNonMatch(int(j))
		}
	}
}

// reestimate re-fits consistency from the enlarged seed set (initial
// matches plus confirmed and propagated matches) and brings the edge
// probabilities up to date, keeping detached vertices detached (§VII-A).
// Every step costs what changed, not what exists:
//
//   - The pending matches are folded into the per-label statistics
//     (seedStats); only a label whose observation list changed is
//     re-fitted, over the list it already holds, the refits concurrently
//     on the pool. An unchanged list would reproduce its deterministic
//     fit, so skipping it is exact.
//   - Only the shards containing a label whose (ε1, ε2) moved are told to
//     rebuild (concurrently), and a rebuild rewrites just those labels'
//     rows in place and invalidates just the balls that can see a
//     rewritten edge (ShardState.Rebuild).
//
// The debugFullResync hook replaces all of it with the from-scratch
// policy — regather every seed, refit every label, rebuild every shard's
// graph and engine — so the equivalence tests diff the two.
func (l *Loop) reestimate() {
	p := l.p
	if p.Cfg.debugFullResync {
		l.est = p.fitConsistency(canonicalSeeds(p.Initial, l.res.Matches), consistency.Fit)
		l.pendingSeeds = l.pendingSeeds[:0]
		l.rebuildShards(func(int) bool { return true })
		return
	}
	if l.stats == nil {
		// Nothing is dirty yet: the lists hold the initial matches'
		// observations, which the Prepared's estimates were fitted from.
		l.stats = newSeedStats(p, p.Initial)
	}
	l.stats.fold(l.pendingSeeds)
	l.pendingSeeds = l.pendingSeeds[:0]

	labels := p.Graph.Labels()
	refit := make([]int, 0, len(labels))
	for li := range l.stats.labels {
		if l.stats.labels[li].dirty {
			l.stats.labels[li].dirty = false
			refit = append(refit, li)
		}
	}
	// The refits are independent, as in fitConsistency: they fan out on
	// the pool and land by index.
	fits := make([]consistency.Estimate, len(refit))
	par.Pool().ForEach(len(refit), func(i int) {
		fits[i] = consistency.Fit(l.stats.labels[refit[i]].obs, consistency.DefaultOptions())
	})
	moved := make([]bool, len(labels))
	anyMoved := false
	for i, li := range refit {
		old := l.est[labels[li]]
		moved[li] = old.Eps1 != fits[i].Eps1 || old.Eps2 != fits[i].Eps2
		anyMoved = anyMoved || moved[li]
	}
	// The estimates start out as the Prepared's own map, which other loops
	// and worker-side shard states read: replace it, never write into it.
	est := maps.Clone(l.est)
	for i, li := range refit {
		est[labels[li]] = fits[i]
	}
	l.est = est
	if !anyMoved {
		return
	}
	// BuildProb consumes only the (ε1, ε2) point estimates, so a shard none
	// of whose labels moved already holds the graph a rebuild would produce.
	l.rebuildShards(func(s int) bool {
		for _, li := range p.labelIdx[s] {
			if moved[li] {
				return true
			}
		}
		return false
	})
}

// rebuildShards has the runner rebuild, concurrently, every unsettled
// shard the predicate selects, against the loop's current estimates.
func (l *Loop) rebuildShards(needs func(s int) bool) {
	rebuild := make([]int, 0, len(l.shards))
	for s, sh := range l.shards {
		if !sh.settled && needs(s) {
			rebuild = append(rebuild, s)
		}
	}
	errs := make([]error, len(rebuild))
	par.Pool().ForEach(len(rebuild), func(i int) {
		errs[i] = l.r.Rebuild(rebuild[i], l.est)
		l.shards[rebuild[i]].dirty = true
	})
	for _, err := range errs {
		if err != nil {
			l.fail(err)
			return
		}
	}
}
