package core

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// ShardRunner abstracts where a Loop's per-shard propagation engines live.
// The loop owns every global decision — answer application order, the
// result sets, budget and µ-batch selection across shards, settling — and
// drives the runner with per-shard operations; the runner owns the engines
// and the per-shard state those operations read (the resolved and
// detached vertex mirrors, the engine's retired sources, the estimates the graph reflects). The
// in-process runner (NewLocalRunner, the default) holds the engines in the
// loop's own process; internal/cluster's remote runner places them on
// worker processes behind an RPC protocol and replays the operation log
// to survive worker crashes.
//
// The loop names a vertex by its global index; this interface is where it
// turns back into a pair (Resolve, Damp, Ball), because runner decorators
// outside this module (the benchmark's timing wrapper) implement these
// signatures. A ShardState converts each pair once, with its shard graph's
// IndexOf.
//
// Operations on distinct shards may be invoked concurrently (the loop fans
// gathers, ranks and rebuilds across its scheduler); operations on one
// shard are always serialized by the loop. A conforming runner must
// replicate the local runner's observable behavior exactly — every
// byte-identity guarantee the loop makes extends to any runner that does.
type ShardRunner interface {
	// Resolve marks shard s's vertex q resolved; detach additionally
	// removes q's edges from the propagation fabric (the non-match path).
	// Resolving an already resolved vertex is idempotent. It is never
	// called for an isolated vertex: the loop keeps those itself.
	Resolve(s int, q pair.Pair, detach bool) error
	// Damp marks q a hard question: candidate gathering skips it from now
	// on, so it is never asked again. Like Resolve it is never called for
	// an isolated vertex. Nothing consumes the damped prior — no shard
	// state reads it, and it does not cross the cluster wire; the
	// parameter stays because runner decorators outside this module (the
	// benchmark's timing wrapper) implement this signature.
	Damp(s int, q pair.Pair, prior float64) error
	// Gather syncs shard s's engine and assembles its candidate questions,
	// with inferred sets as global vertex indexes. The boolean reports
	// whether some candidate can still infer a pair other than itself. The
	// list is valid until the next Gather on shard s, which may refill it.
	Gather(s int) ([]selection.Candidate, bool, error)
	// Rank runs the configured strategy over shard s's candidates from its
	// latest gather, for a batch of size mu. The loop calls it once after
	// each Gather that found candidates, with mu = min(Config.Mu,
	// candidates), so a runner may answer it from that gather.
	Rank(s, mu int) ([]selection.Pick, error)
	// Ball returns the vertices a confirmed match at q would infer — q's
	// bounded-distance ball as of the last engine sync, none if q was
	// resolved or damped before it — in propagation order (ascending
	// distance, ties by pair order), unfiltered by resolution state; the
	// loop applies its own 1:1-constraint cascade.
	Ball(s int, q pair.Pair) ([]pair.Pair, error)
	// Rebuild brings shard s's probabilistic graph to the given consistency
	// estimates, detached vertices staying detached, and invalidates the
	// balls the change can reach (the re-estimation path). est must cover
	// the shard's labels; the shard diffs it against its own.
	Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error
	// Invalidate degrades shard s's engine to a full recompute at its next
	// sync: the debugFullResync test hook, which only in-process runners
	// honour (a remote runner returns an error).
	Invalidate(s int) error
	// Release drops shard s's engine — the shard settled — and returns the
	// engine's Dijkstra recompute count. Releasing twice returns 0.
	Release(s int) (int64, error)
	// Close releases every remaining engine and returns the sum of their
	// recompute counts. The runner is unusable afterwards.
	Close() (int64, error)
}

// RunnerFactory builds the ShardRunner a new Loop will drive over the
// given prepared pipeline.
type RunnerFactory func(p *Prepared) (ShardRunner, error)

// runnerFactory resolves the configured factory, defaulting to the
// in-process runner.
func (c *Config) runnerFactory() RunnerFactory {
	if c.Runner != nil {
		return c.Runner
	}
	return NewLocalRunner
}

// ShardState is one shard's live engine state: its own copy of the shard's
// probabilistic graph (ProbGraph.Clone of the Shard's), the incremental
// propagation engine over it, the rewriter that keeps it in step with the
// loop's estimates, and the mirrors of the loop's resolution state that
// candidate gathering and rebuilds read. The mirrors are addressed by
// shard-local vertex index — the index space the graph, the engine's balls
// and the rewriter already share — so neither a gather nor a rebuild
// hashes a pair per ball entry. It is the execution substrate both
// ShardRunner implementations share — the local runner holds one per shard
// in process, and a cluster worker holds one per assigned shard, fed the
// same operations over RPC — so both compute bit-identical candidates,
// ranks, balls and rebuilds by construction.
//
// Everything that changes during a loop lives here or in the Loop; the
// Shard is only read, so any number of states share one.
//
// A ShardState is not safe for concurrent use; the loop serializes
// operations per shard, and workers add their own locking.
type ShardState struct {
	sh   *Shard
	prob *propagation.ProbGraph
	eng  *propagation.Engine
	// rw rewrites prob in place on re-estimation and remembers the
	// estimates prob reflects; nil until the first Rebuild, when prob still
	// reflects the shard's own.
	rw *propagation.Rewriter

	resolved []bool
	detached []bool

	// The latest gather: its candidates, and the one flat array holding
	// their inferred lists; both are refilled in place by the next one.
	lastCands []selection.Candidate
	backing   []int
	anyProp   bool
}

// NewShardState builds the engine state for a shard over a copy of its
// probabilistic graph. The initial engine build is the state's first
// propagation work. A vertex without an edge is the loop's own to ask
// about, never this state's to offer. Prepare cuts none into a shard, but a
// decoded shard may carry one: the state holds it resolved from birth, so
// its gathers pass over it and its engine retires it.
func NewShardState(sh *Shard) *ShardState {
	n := sh.graph.NumVertices()
	prob := sh.prob.Clone()
	st := &ShardState{
		sh:       sh,
		prob:     prob,
		eng:      propagation.NewEngineObs(prob, sh.tau, sh.counters),
		resolved: make([]bool, n),
		detached: make([]bool, n),
	}
	for li := range st.resolved {
		if len(sh.graph.OutIndexesAt(li)) == 0 && len(sh.graph.InIndexesAt(li)) == 0 {
			st.resolved[li] = true
			st.eng.Retire(li)
		}
	}
	return st
}

// Resolve marks q resolved; detach removes its edges from the propagation
// fabric. No-op after Release.
func (st *ShardState) Resolve(q pair.Pair, detach bool) {
	i := st.sh.graph.IndexOf(q)
	if st.eng == nil || i < 0 {
		return
	}
	st.resolved[i] = true
	st.eng.Retire(i) // gathers skip it from now on
	if detach {
		st.detached[i] = true
		st.eng.DetachVertex(i)
	}
}

// Damp marks q a hard question: its engine source is retired, so gathers
// skip it and q is not asked again — which is why no damped prior is kept.
func (st *ShardState) Damp(q pair.Pair) {
	if i := st.sh.graph.IndexOf(q); st.eng != nil && i >= 0 {
		st.eng.Retire(i)
	}
}

// Sync recomputes the engine's dirty balls without assembling candidates.
// It is the replayable form of the sync a Gather performs: a cluster
// worker replaying a reassigned shard's operation log executes Sync at
// every logged gather position, so the engine's last-sync snapshot — the
// one Ball serves — reproduces bit-identically.
func (st *ShardState) Sync() {
	if st.eng != nil {
		st.eng.Sync()
	}
}

// Gather syncs the engine and assembles the candidate question list over
// the shard's unresolved, non-hard vertices — every one of which has an
// edge — with inferred sets as global vertex indexes. The boolean reports
// whether some question can still infer a pair other than itself — the
// loop's stop signal. The list is the state's own, refilled by the next
// Gather.
func (st *ShardState) Gather() ([]selection.Candidate, bool) {
	if st.eng == nil {
		return nil, false
	}
	st.eng.Sync()
	st.assemble()
	return st.lastCands, st.anyProp
}

// assemble fills lastCands and backing from the engine's balls. A first
// pass bounds the total, so the fills never reallocate and the buffers
// grow only when a gather outgrows every earlier one. The balls are
// already ascending in vertex index, so the inferred lists come out in the
// deterministic order the benefit sums need (they are order-sensitive in
// floating point) without any per-loop sorting.
//
//remp:hotpath
func (st *ShardState) assemble() {
	live, total := 0, 0
	for li := range st.resolved {
		if !st.eng.Retired(li) {
			live++
			total += len(st.eng.Ball(li)) + 1
		}
	}
	if live == 0 {
		st.lastCands, st.anyProp = nil, false
		return
	}
	if cap(st.backing) < total {
		st.backing = make([]int, 0, total)
	}
	if cap(st.lastCands) < live {
		st.lastCands = make([]selection.Candidate, 0, live)
	}
	backing, cands, global := st.backing[:0], st.lastCands[:0], st.sh.globalIdx
	anyPropagation := false
	for li, v := range st.sh.graph.Vertices() {
		if st.eng.Retired(li) {
			continue
		}
		start := len(backing)
		backing = append(backing, global[li]) // a match label always resolves the question itself
		for _, en := range st.eng.Ball(li) {
			if !st.resolved[en.Idx] {
				backing = append(backing, global[en.Idx])
			}
		}
		inf := backing[start:len(backing):len(backing)]
		if len(inf) > 1 {
			anyPropagation = true
		}
		cands = append(cands, selection.Candidate{Pair: v, Prob: st.sh.prior[li], Inferred: inf})
	}
	st.backing, st.lastCands, st.anyProp = backing, cands, anyPropagation
}

// Rank runs the configured strategy over the latest gather's candidates.
func (st *ShardState) Rank(mu int) []selection.Pick {
	if len(st.lastCands) == 0 {
		return []selection.Pick{}
	}
	return st.sh.strategy.SelectRanked(st.lastCands, mu)
}

// Ball returns q's bounded-distance ball as of the last engine sync, in
// propagation order (ascending distance, ties by pair order), resolved
// vertices included — the loop filters against its own result state.
func (st *ShardState) Ball(q pair.Pair) []pair.Pair {
	if st.eng == nil {
		return nil
	}
	g := st.sh.graph
	qi := g.IndexOf(q)
	if qi < 0 {
		return nil
	}
	verts := g.Vertices()
	ball := st.eng.Ball(qi)
	out := make([]pair.Pair, len(ball))
	for i, k := range ball.DistOrder(verts) { // smaller distance first
		out[i] = verts[ball[k].Idx]
	}
	return out
}

// Rebuild brings the probabilistic graph to the given estimates, keeping
// the shard's detached vertices detached — the per-shard half of
// re-estimation (§VII-A). The state diffs the estimates against the ones
// its graph reflects, rewrites in place the rows owning a label that
// moved, and invalidates exactly the balls that can see a rewritten edge;
// the result is bit-identical to rebuilding the graph and the engine from
// scratch, which is what the debugFullResync hook still does.
func (st *ShardState) Rebuild(est map[ergraph.RelPair]consistency.Estimate) {
	if st.eng == nil {
		return
	}
	if st.sh.fullResync {
		st.rebuildFromScratch(est)
		return
	}
	if st.rw == nil {
		st.rw = propagation.NewRewriter(st.prob, st.sh.prior, st.sh.est)
	}
	st.eng.InvalidateTails(st.rw.Apply(est, st.detached))
}

// rebuildFromScratch is the reference rebuild: a fresh BuildProb, the
// engine reset over it, and every detached vertex re-detached.
func (st *ShardState) rebuildFromScratch(est map[ergraph.RelPair]consistency.Estimate) {
	prob := propagation.BuildProbDense(st.sh.graph, st.sh.prior, est)
	st.prob = prob
	st.eng.Reset(prob)
	for i, detached := range st.detached {
		if detached {
			st.eng.DetachVertex(i)
		}
	}
}

// Invalidate degrades the engine to a full recompute at its next sync.
func (st *ShardState) Invalidate() {
	if st.eng != nil {
		st.eng.InvalidateAll()
	}
}

// Release drops the engine — its dist/rev ball maps are the dominant
// memory — and returns its Dijkstra recompute count; 0 on a second call.
func (st *ShardState) Release() int64 {
	if st.eng == nil {
		return 0
	}
	n := st.eng.Recomputes()
	st.eng = nil
	st.lastCands, st.backing = nil, nil
	return n
}

// localRunner is the in-process ShardRunner: one ShardState per shard,
// built concurrently under the pipeline scheduler. Its operations never
// fail.
type localRunner struct {
	states []*ShardState
}

// NewLocalRunner builds the default in-process ShardRunner over the
// prepared pipeline. The initial engine builds are the first propagation
// work of the session; their Dijkstra fan-out lands in the shared engine
// counters.
func NewLocalRunner(p *Prepared) (ShardRunner, error) {
	lr := &localRunner{states: make([]*ShardState, len(p.shards))}
	par.Pool().ForEach(len(p.shards), func(s int) {
		lr.states[s] = NewShardState(p.shards[s])
	})
	return lr, nil
}

func (r *localRunner) Resolve(s int, q pair.Pair, detach bool) error {
	r.states[s].Resolve(q, detach)
	return nil
}

func (r *localRunner) Damp(s int, q pair.Pair, _ float64) error {
	r.states[s].Damp(q)
	return nil
}

func (r *localRunner) Gather(s int) ([]selection.Candidate, bool, error) {
	cands, anyProp := r.states[s].Gather()
	return cands, anyProp, nil
}

func (r *localRunner) Rank(s, mu int) ([]selection.Pick, error) {
	return r.states[s].Rank(mu), nil
}

func (r *localRunner) Ball(s int, q pair.Pair) ([]pair.Pair, error) {
	return r.states[s].Ball(q), nil
}

func (r *localRunner) Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error {
	r.states[s].Rebuild(est)
	return nil
}

func (r *localRunner) Invalidate(s int) error {
	r.states[s].Invalidate()
	return nil
}

func (r *localRunner) Release(s int) (int64, error) {
	return r.states[s].Release(), nil
}

func (r *localRunner) Close() (int64, error) {
	var n int64
	for _, st := range r.states {
		n += st.Release()
	}
	return n, nil
}
