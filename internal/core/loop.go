package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/crowd"
	"repro/internal/ergraph"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/selection"
)

// LoopState names the externally visible states of a Loop.
type LoopState string

// Loop states. A loop is born Awaiting (or Done, when the stop criterion
// already holds on the prepared graph) and every transition is driven by
// Deliver: once the open batch drains, the machine advances through the
// batch tail (re-estimation, budget check) and either publishes the next
// batch or finishes.
const (
	// LoopAwaiting means a batch of questions is published and at least
	// one answer is still outstanding.
	LoopAwaiting LoopState = "awaiting_answers"
	// LoopDone means the stop criterion held: the result is final.
	LoopDone LoopState = "done"
	// LoopFailed means the shard runner failed permanently (a remote
	// runner lost its whole cluster); Err reports why. The local runner
	// never fails, so in-process loops never reach this state.
	LoopFailed LoopState = "failed"
)

// Errors returned by Loop.Deliver.
var (
	// ErrLoopDone is returned when answers arrive after the loop finished.
	ErrLoopDone = errors.New("core: loop is done")
	// ErrUnknownQuestion is returned for a pair outside the open batch.
	ErrUnknownQuestion = errors.New("core: not an open question")
	// ErrDuplicateAnswer is returned when an open question is answered twice.
	ErrDuplicateAnswer = errors.New("core: question already answered")
)

// Answer is one answered question: the pair and the worker labels it
// received. Loop.History records them in application order, which replays
// a loop deterministically (the snapshot format of internal/session).
type Answer struct {
	Pair   pair.Pair
	Labels []crowd.Label
}

// loopShard is the loop's bookkeeping for one engine shard: the caches that
// make clean shards free. The engines themselves live behind the ShardRunner. The
// isolated vertices are in no loopShard — the Loop holds them directly
// (isoDead, isoHead). A shard whose vertices are all resolved is settled:
// its engine is released (the dist/rev ball maps are the loop's dominant
// memory) and every later phase skips it.
//
// dirty tracks whether anything that feeds candidate gathering changed
// since the shard's last gather: an answer applied to a shard vertex, a
// competitor resolved into the shard, a hard question, or an engine
// rebuild. A clean shard's candidates — and its ranked selection — are
// bit-identical to the previous loop's, so both are cached and reused; a
// monolithic pipeline is dirtied by every answer, which is exactly the
// per-loop cost sharding scopes down. A shard is ranked once per gather,
// for min(Config.Mu, candidates): a batch's µ never exceeds Config.Mu,
// and by the Strategy contract a ranking for µ is a prefix of that one.
type loopShard struct {
	settled    bool
	unresolved int // vertices with an edge not yet resolved either way; 0 settles the shard

	dirty   bool
	cands   []selection.Candidate
	anyProp bool
	picks   []selection.Pick
}

// Loop is the human–machine loop as an explicit state machine. Run drives
// it synchronously against an Asker; callers that cannot block on one —
// crowd platforms posting HITs, HTTP clients, concurrent jobs — pull
// question batches and push answers as they arrive, in any order.
//
// The result does not depend on the driver: a batch of µ questions is
// selected against the engine snapshot taken at the loop top; answers are
// buffered and applied in the batch's selection order (the order Run asks
// them), so out-of-order delivery cannot change a single resolved pair;
// when the batch drains the loop tail runs (re-estimation, budget check)
// and the next batch is selected, until the paper's stop criterion halts
// the loop and the isolated-pair classifier finalizes the result.
//
// When the pipeline is sharded, each shard runs its propagation engine,
// candidate gathering, question selection and re-estimation rebuild
// independently — fanned across the process's one pool, par.Pool — while
// one global budget/µ-batch scheduler draws each batch across the shards by
// expected benefit. Propagation evidence never crosses shards (the partition
// follows the relational edges it flows along), and the only cross-shard
// effect — the 1:1 constraint resolving a confirmed match's competitors —
// runs on the serial answer-application path, so the sharded machine
// resolves exactly the pairs the monolithic one would.
//
// The isolated vertices are in no shard at any shard count. Nothing
// propagates to or from them, so the loop holds them itself — a shard with
// no engine: a flag per vertex for whether it is still a candidate, and a
// cursor into the ranking it makes of them once, at its first batch. A batch costs
// them the few entries it reads off that ranking, however many there are.
//
// The engines live behind the Config's ShardRunner: in this process by
// default, or on cluster worker processes behind internal/cluster's
// remote runner. A runner that fails permanently moves the loop to
// LoopFailed and Err reports the cause; the in-process runner never does.
//
// A Loop is not safe for concurrent use; internal/session.Session adds the
// locking, stable question IDs and snapshot/restore on top.
type Loop struct {
	p      *Prepared
	r      ShardRunner
	res    *Result
	shards []*loopShard
	// The isolated vertices are the loop's own shard: no engine, no runner
	// call. isoDead[i] is set once p.isolated[i] is resolved or hard and
	// isoLive counts the rest. isoRank is the strategy's ranking of them as
	// questions (Index is a position in p.isolated), made once, at the
	// first batch; isoHead is the cursor into it — every entry before it
	// is dead.
	isoDead []bool
	isoLive int
	isoRank []selection.Pick
	isoHead int

	open    []pair.Pair                 // published batch, in selection order
	next    int                         // index into open of the next answer to apply
	buf     map[pair.Pair][]crowd.Label // out-of-order answers awaiting their turn
	history []Answer                    // applied answers, in application order
	done    bool
	err     error // sticky runner failure; the loop is dead once set

	// pendingSeeds are the matches confirmed or propagated since the last
	// consistency refit; re-estimation folds them into stats, the per-label
	// observation lists (built at the first re-estimation), and re-fits
	// only the labels whose list changed. est are the loop's current
	// estimates: the Prepared's own map until the first refit replaces it.
	pendingSeeds []pair.Pair
	stats        *seedStats
	est          map[ergraph.RelPair]consistency.Estimate

	// deduced are the open questions drain skipped because an earlier
	// answer had already resolved them (Config.Deduce), so the session
	// layer can swallow their late crowd answers.
	deduced pair.Set

	// recomputes counts the single-source Dijkstra runs of the engines
	// released so far — all of them once the loop is done. Kept for the
	// test that asserts only dirty sources are recomputed.
	recomputes int64
}

// NewLoop starts a human–machine loop over the pipeline and advances it to
// its first question batch (or directly to LoopDone when nothing can be
// asked).
func (p *Prepared) NewLoop() *Loop {
	l := &Loop{
		p: p,
		res: &Result{
			Matches:           pair.Set{},
			Confirmed:         pair.Set{},
			Propagated:        pair.Set{},
			IsolatedPredicted: pair.Set{},
			NonMatches:        pair.Set{},
		},
		est:     p.Consistency,
		isoDead: make([]bool, len(p.isolated)),
		isoLive: len(p.isolated),
	}
	if p.Cfg.Deduce {
		l.deduced = pair.Set{}
	}
	l.shards = make([]*loopShard, len(p.shards))
	for s, size := range p.ShardSizes() {
		l.shards[s] = &loopShard{dirty: true, unresolved: size}
	}
	// The initial engine builds are the first propagation work of the
	// session; their Dijkstra fan-out lands in the infer stage and the
	// shared engine counters.
	t0 := p.Cfg.Obs.StageStart()
	r, err := p.Cfg.runnerFactory()(p)
	p.Cfg.Obs.StageEnd(obs.StageInfer, t0)
	if err != nil {
		l.fail(fmt.Errorf("core: starting shard runner: %w", err))
		return l
	}
	l.r = r
	l.openBatch()
	return l
}

// NumShards returns the number of engine shards the loop runs over.
func (l *Loop) NumShards() int { return len(l.shards) }

// ShardSizes returns the number of vertices with an edge per engine shard
// (the shard assignment fingerprint session snapshots record).
func (l *Loop) ShardSizes() []int { return l.p.ShardSizes() }

// home routes graph vertex i: the engine shard holding it, or ^k when it is
// isolated vertex k of l.p.isolated — which the loop keeps itself.
func (l *Loop) home(i int) int { return int(l.p.home[i]) }

// retire takes isolated vertex iso out of the candidates for good: it was
// resolved, or turned out a hard question.
func (l *Loop) retire(iso int) {
	if !l.isoDead[iso] {
		l.isoDead[iso] = true
		l.isoLive--
	}
}

// nextSingleton returns the first position at or after i in the isolated
// vertices' ranking whose vertex is still a candidate, len(l.isoRank) when
// none is.
//
//remp:hotpath
func (l *Loop) nextSingleton(i int) int {
	for i < len(l.isoRank) && l.isoDead[l.isoRank[i].Index] {
		i++
	}
	return i
}

// resolved reports whether q has been decided either way.
func (l *Loop) resolved(q pair.Pair) bool {
	return l.res.Matches.Has(q) || l.res.NonMatches.Has(q)
}

// WasDeduced reports whether q was skipped by answer deduction instead
// of being answered by the crowd (always false unless Config.Deduce). The
// session layer uses it to swallow a late crowd answer for q.
func (l *Loop) WasDeduced(q pair.Pair) bool { return l.deduced.Has(q) }

// skips reports whether the drain will skip open question q with no
// answer: with Config.Deduce, an earlier answer already resolved it.
func (l *Loop) skips(q pair.Pair) bool { return l.p.Cfg.Deduce && l.resolved(q) }

// touch marks vertex i's shard dirty: its cached candidates and selection
// no longer describe the next loop.
func (l *Loop) touch(i int) {
	if s := l.home(i); s >= 0 {
		l.shards[s].dirty = true
	}
}

// resolving is called just before vertex i enters a result set: it dirties
// i's shard and, on i's first resolution (an inconsistent crowd can resolve
// a pair twice, even both ways), counts it off the shard's unresolved
// vertices. An isolated i is retired instead.
func (l *Loop) resolving(i int) {
	s := l.home(i)
	if s < 0 {
		l.retire(^s)
		return
	}
	l.shards[s].dirty = true
	if !l.resolved(l.p.Retained[i]) {
		l.shards[s].unresolved--
	}
}

// fail records a permanent runner failure: the loop is dead, Deliver
// returns the error, and the engines are released best-effort.
func (l *Loop) fail(err error) {
	if l.err != nil || l.done {
		return
	}
	l.err = err
	l.open, l.buf = nil, nil
	l.next = 0
	if l.r != nil {
		l.r.Close() //nolint:errcheck // best-effort release on the failure path
	}
}

// Close abandons a loop that will not be driven to its end: the shard
// engines are released through the runner and every later Deliver
// returns ErrLoopDone (State reports LoopFailed with that error). It is
// idempotent, and a no-op on a loop that already finished or failed —
// both released their engines.
func (l *Loop) Close() {
	l.fail(fmt.Errorf("%w (closed)", ErrLoopDone))
}

// runnerResolve mirrors vertex i's resolution into the owning shard's
// engine state. An isolated vertex has none. Settled shards are skipped:
// every vertex there is already resolved, so the runner state cannot be
// consulted again.
func (l *Loop) runnerResolve(i int, detach bool) {
	if l.err != nil {
		return
	}
	s := l.home(i)
	if s < 0 || l.shards[s].settled {
		return
	}
	if err := l.r.Resolve(s, l.p.Retained[i], detach); err != nil {
		l.fail(err)
	}
}

// markNonMatch resolves vertex i negative: the result set, the shard dirty
// flag and the runner's propagation state (detachment) advance together.
func (l *Loop) markNonMatch(i int) {
	v := l.p.Retained[i]
	l.resolving(i)
	l.res.NonMatches.Add(v)
	l.runnerResolve(i, true)
}

// State returns the loop's current state.
func (l *Loop) State() LoopState {
	if l.err != nil {
		return LoopFailed
	}
	if l.done {
		return LoopDone
	}
	return LoopAwaiting
}

// Done reports whether the loop has finished and the result is final.
func (l *Loop) Done() bool { return l.done }

// Err returns the permanent runner failure that moved the loop to
// LoopFailed, or nil.
func (l *Loop) Err() error { return l.err }

// Result returns the loop's result. While the loop is awaiting answers the
// sets are live views of the work in progress; once Done they are final.
func (l *Loop) Result() *Result { return l.res }

// Batch returns the open questions that can still be asked, in selection
// order: those with no answer yet that the drain will not skip (with
// Config.Deduce, a question an earlier answer resolved is skipped, so
// asking it would buy an answer the loop discards). It is empty exactly
// when the loop is done or failed: after any drain the question at the
// cursor is neither buffered (the drain would have applied it) nor, with
// Deduce on, resolved (the drain would have skipped it), and nothing
// resolves a pair between drains.
func (l *Loop) Batch() []pair.Pair {
	out := make([]pair.Pair, 0, len(l.open)-l.next)
	for _, q := range l.open[l.next:] {
		if _, buffered := l.buf[q]; !buffered && !l.skips(q) {
			out = append(out, q)
		}
	}
	return out
}

// History returns the applied answers in application order. Replaying them
// through a fresh Loop via Deliver reproduces this loop's state exactly;
// the slice is the loop's own and must not be mutated.
func (l *Loop) History() []Answer { return l.history }

// Buffered returns the answers delivered out of order and not yet applied,
// sorted by pair for determinism.
func (l *Loop) Buffered() []Answer {
	out := make([]Answer, 0, len(l.buf))
	for q, labels := range l.buf {
		out = append(out, Answer{Pair: q, Labels: labels})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pair.Less(out[j].Pair) })
	return out
}

// Deliver accepts the worker labels for one open question, in any order.
// Answers are applied strictly in the batch's selection order; an answer
// arriving early is buffered until its predecessors arrive. When the
// delivery drains the batch, the machine advances: loop tail, next batch
// selection, and — when the stop criterion holds — finalization.
func (l *Loop) Deliver(q pair.Pair, labels []crowd.Label) error {
	if l.err != nil {
		return l.err
	}
	if l.done {
		return fmt.Errorf("%w (extra answer for %v)", ErrLoopDone, q)
	}
	openQ := false
	for _, o := range l.open[l.next:] {
		if o == q {
			openQ = true
			break
		}
	}
	if !openQ {
		return fmt.Errorf("%w: %v", ErrUnknownQuestion, q)
	}
	if _, dup := l.buf[q]; dup {
		return fmt.Errorf("%w: %v", ErrDuplicateAnswer, q)
	}
	l.buf[q] = labels
	l.drain()
	if l.err != nil {
		return l.err
	}
	return nil
}

// drain applies the longest in-order prefix of buffered answers and, when
// the batch is exhausted, runs the loop tail and advances.
func (l *Loop) drain() {
	cfg := l.p.Cfg
	for l.next < len(l.open) {
		q := l.open[l.next]
		if l.skips(q) {
			// An earlier batch-mate's propagation cascade or competitor
			// exclusion already resolved q: skip the question instead of
			// spending a crowd answer. Any buffered late answer is
			// dropped; the session layer swallows re-deliveries via
			// WasDeduced. The skip is a pure function of the applied
			// prefix, so replays and out-of-order runs skip identically.
			delete(l.buf, q)
			l.next++
			l.res.Deduced++
			l.deduced.Add(q)
			continue
		}
		labels, ok := l.buf[q]
		if !ok {
			return // an earlier question is still outstanding
		}
		delete(l.buf, q)
		l.next++
		l.apply(q, labels)
		if l.err != nil {
			return
		}
		if cfg.Budget > 0 && l.res.Questions >= cfg.Budget {
			// The budget is full: abandon the rest of the batch. Since µ
			// is clamped to the remaining budget at selection time this
			// is only ever the batch's last question.
			l.open = l.open[:l.next]
			clear(l.buf)
			break
		}
	}
	l.batchTail()
}

// apply resolves one answered question against the current snapshot — the
// batch body of Run. The question arrives as a pair; it is looked up once,
// and the rest of the loop names it by its index.
func (l *Loop) apply(q pair.Pair, labels []crowd.Label) {
	cfg := l.p.Cfg
	t0 := cfg.Obs.StageStart()
	defer cfg.Obs.StageEnd(obs.StageApply, t0)
	cfg.Obs.AddQuestion()
	l.history = append(l.history, Answer{Pair: q, Labels: labels})
	l.res.Questions++
	qi := l.p.Graph.IndexOf(q)
	l.touch(qi)
	inf := crowd.Infer(l.p.Prior(qi), labels, cfg.Thresholds)
	switch inf.Verdict {
	case crowd.IsMatch:
		l.confirmMatch(qi)
	case crowd.IsNonMatch:
		l.markNonMatch(qi)
	default:
		// Hard question: retired, so it is never selected again.
		if s := l.home(qi); s < 0 {
			l.retire(^s)
		} else if !l.shards[s].settled && l.err == nil {
			if err := l.r.Damp(s, q, inf.Posterior); err != nil {
				l.fail(err)
			}
		}
	}
}

// batchTail runs the work Run performs after a batch of µ answers:
// re-estimation, once a worker has confirmed a match, and the budget stop,
// then advances to the next batch.
func (l *Loop) batchTail() {
	cfg := l.p.Cfg
	if l.err != nil {
		return
	}
	if l.res.Confirmed.Len() > 0 {
		t0 := cfg.Obs.StageStart()
		l.reestimate()
		cfg.Obs.StageEnd(obs.StageReestimate, t0)
		if l.err != nil {
			return
		}
	}
	if cfg.Budget > 0 && l.res.Questions >= cfg.Budget {
		l.finish()
		return
	}
	l.openBatch()
}

// settle marks fully resolved shards settled and releases their engines:
// no later phase reads them (candidates skip resolved vertices, answers
// only target candidates, and a competitor of a future match that falls
// in a settled shard is already resolved, so it is never detached), so
// their ball maps — the loop's dominant memory — can be collected and
// every per-shard phase skips them outright.
func (l *Loop) settle() {
	for s, sh := range l.shards {
		if sh.settled || sh.unresolved > 0 {
			continue
		}
		sh.settled = true
		n, err := l.r.Release(s)
		if err != nil {
			l.fail(err)
			return
		}
		l.recomputes += n
		sh.cands, sh.picks = nil, nil
	}
}

// active returns the indexes of unsettled shards.
func (l *Loop) active() []int {
	out := make([]int, 0, len(l.shards))
	for s, sh := range l.shards {
		if !sh.settled {
			out = append(out, s)
		}
	}
	return out
}

// openBatch is the loop top of Run: settle finished shards, sync, gather
// and rank the dirty shards concurrently, check the stop criterion, and
// draw the next µ questions across shards by expected benefit. It either
// publishes a batch or finishes the loop.
func (l *Loop) openBatch() {
	cfg := l.p.Cfg
	if cfg.MaxLoops > 0 && l.res.Loops >= cfg.MaxLoops {
		l.finish()
		return
	}
	l.settle()
	if l.err != nil {
		return
	}
	active := l.active()
	dirty := make([]int, 0, len(active))
	for _, s := range active {
		if l.shards[s].dirty {
			dirty = append(dirty, s)
		}
	}
	// The engine Syncs, candidate gathers and the dirty shards' rankings
	// are the loop's propagation phase; everything from the merge to the
	// padded batch is selection.
	tInfer := cfg.Obs.StageStart()
	gatherErrs := make([]error, len(dirty))
	par.Pool().ForEach(len(dirty), func(k int) {
		sh := l.shards[dirty[k]]
		cands, anyProp, err := l.r.Gather(dirty[k])
		if err != nil {
			gatherErrs[k] = err
			return
		}
		picks := []selection.Pick{}
		if len(cands) > 0 {
			if picks, err = l.r.Rank(dirty[k], min(cfg.Mu, len(cands))); err != nil {
				gatherErrs[k] = err
				return
			}
		}
		sh.cands, sh.anyProp, sh.picks = cands, anyProp, picks
		sh.dirty = false
	})
	cfg.Obs.StageEnd(obs.StageInfer, tInfer)
	for _, err := range gatherErrs {
		if err != nil {
			l.fail(err)
			return
		}
	}
	tSelect := cfg.Obs.StageStart()
	if l.isoRank == nil && l.isoLive > 0 {
		// Rank the isolated vertices as the candidate questions they are,
		// once. By the Strategy contract a score depends only on a candidate
		// and the chosen candidates whose inferred sets overlap it; a
		// singleton's is itself alone, so this one ranking, filtered to the
		// vertices still live, is the ranking of any later batch.
		cands := make([]selection.Candidate, len(l.isoDead))
		for i := range cands {
			cands[i] = l.p.singleton(i)
		}
		l.isoRank = cfg.Strategy.SelectRanked(cands, len(cands))
	}
	l.isoHead = l.nextSingleton(l.isoHead)
	candidates := l.isoLive
	anyPropagation := false
	for _, s := range active {
		candidates += len(l.shards[s].cands)
		anyPropagation = anyPropagation || l.shards[s].anyProp
	}
	if candidates == 0 || (!anyPropagation && !cfg.ExhaustBudget) {
		cfg.Obs.StageEnd(obs.StageSelect, tSelect)
		l.finish()
		return
	}
	// A batch holds at most every candidate. µ comes from the client
	// unbounded: it is clamped before anything is sized by it, and the
	// budget clamp subtracts, since Questions+µ can overflow.
	mu := min(cfg.Mu, candidates)
	if cfg.Budget > 0 {
		mu = min(mu, cfg.Budget-l.res.Questions)
		if mu <= 0 {
			cfg.Obs.StageEnd(obs.StageSelect, tSelect)
			l.finish()
			return
		}
	}
	chosen := l.selectBatch(active, mu)
	if len(chosen) < mu {
		// Remp always issues µ questions per human-machine loop (§VIII,
		// Table VII): pad the batch with the highest-prior unchosen
		// candidates once marginal benefits hit zero. It is the one step
		// that needs every candidate in one list, so the list is built
		// here, on the rare batch that comes up short.
		var all []selection.Candidate
		for _, s := range active {
			all = append(all, l.shards[s].cands...)
		}
		for i, dead := range l.isoDead {
			if !dead {
				all = append(all, l.p.singleton(i))
			}
		}
		chosen = padBatch(all, chosen, mu)
	}
	if cfg.Deduce {
		// Deduction-aware ordering: front-load the questions whose
		// confirmation cascade closes the most open batch-mates, so the
		// deduction skip in drain fires as often as possible. Stable on
		// the selection order, so determinism holds.
		chosen = selection.OrderByClosureGain(chosen)
	}
	cfg.Obs.StageEnd(obs.StageSelect, tSelect)
	if len(chosen) == 0 {
		l.finish()
		return
	}
	cfg.Obs.AddBatch()
	l.res.Loops++
	l.open = make([]pair.Pair, len(chosen))
	for i, c := range chosen {
		l.open[i] = c.Pair
	}
	l.next = 0
	l.buf = make(map[pair.Pair][]crowd.Label, len(l.open))
}

// selectBatch chooses up to mu questions: each shard's sequence is the
// ranking its last gather made, the isolated vertices' sequence is their
// one ranking read from the cursor past the dead, and the sequences are
// merged by committed score, ties on the global vertex index
// (Inferred[0]) — the order of the candidate list a monolithic gather
// would produce. By the Strategy contract the first mu of the merged
// sequence are what the strategy would choose on that list for a batch of
// mu, at any shard count.
func (l *Loop) selectBatch(active []int, mu int) []selection.Candidate {
	picks := make([][]selection.Pick, len(active))
	for k, s := range active {
		picks[k] = l.shards[s].picks
	}
	// The streams merged are the shards' sequences, by position in picks,
	// and the isolated vertices' one.
	const none, singletons = -1, -2
	rank := l.isoRank
	heads := make([]int, len(picks))
	iso := l.isoHead
	best, bestIdx, bestScore := none, 0, 0.0
	offer := func(stream int, score float64, idx int) {
		if best == none || score > bestScore || (score == bestScore && idx < bestIdx) {
			best, bestScore, bestIdx = stream, score, idx
		}
	}
	chosen := make([]selection.Candidate, 0, mu)
	for len(chosen) < mu {
		best = none
		for k := range picks {
			if heads[k] < len(picks[k]) {
				pk := picks[k][heads[k]]
				offer(k, pk.Score, l.shards[active[k]].cands[pk.Index].Inferred[0])
			}
		}
		if iso = l.nextSingleton(iso); iso < len(rank) {
			offer(singletons, rank[iso].Score, l.p.isolated[rank[iso].Index])
		}
		switch best {
		case none:
			return chosen
		case singletons:
			chosen = append(chosen, l.p.singleton(rank[iso].Index))
			iso++
		default:
			chosen = append(chosen, l.shards[active[best]].cands[picks[best][heads[best]].Index])
			heads[best]++
		}
	}
	return chosen
}

// finish runs the finalization Run performs after the loop breaks, records
// the engines' Dijkstra counts and releases their ball maps.
func (l *Loop) finish() {
	l.open = nil
	l.buf = nil
	l.next = 0
	if l.r != nil {
		// Close errors are not failures here: the result is already final,
		// and a remote runner's lost recompute counts are diagnostics only.
		n, _ := l.r.Close()
		l.recomputes += n
	}
	if l.p.Cfg.ClassifyIsolated {
		t0 := l.p.Cfg.Obs.StageStart()
		l.p.classifyIsolated(l.res)
		l.p.Cfg.Obs.StageEnd(obs.StageClassify, t0)
	}
	l.done = true
}
