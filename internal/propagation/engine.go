package propagation

import (
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pair"
)

// Engine maintains the bounded-distance balls of Algorithm 2 incrementally
// across the human–machine loop: the reverse index rev[p] names precisely
// the sources whose ζ-balls contain a vertex p, so when an edge leaving p
// changes — removed with a detached vertex, or re-weighted in either
// direction by re-estimation — only those sources plus p itself are re-run.
//
// The invalidation rule is exact: an edge whose probability changed
// dirties rev[tail] ∪ {tail}, with rev as of the last Sync. Let G0 be the
// graph at the last Sync, G1 the current one, and q a source whose ball
// differs between them. Then some ζ-bounded path from q, in G0 or in G1,
// uses an edge that differs; take the first such edge on it. The prefix
// before it consists of edges identical in G0 and G1, so it is a
// ζ-bounded path of G0 from q to that edge's tail: the tail was in q's
// ball at the last Sync (or is q itself), i.e. q ∈ rev[tail] ∪ {tail},
// and was queued when the edge changed. Every other source keeps all of
// its bounded paths and gains none, hence its ball is bitwise unchanged.
// The direction of the change never enters the argument, so weakened and
// strengthened edges take the same partial path. DetachVertex queues
// rev[p] ∪ {p} for the detached vertex p instead of the tails of p's
// in-edges: those edges only disappear, and a bounded path of G0 through
// one of them reaches p itself within ζ.
//
// Mutators (DetachVertex, InvalidateTails, Reset, InvalidateAll) only
// record invalidations; Sync applies them, fanning one bounded Dijkstra
// per dirty source across GOMAXPROCS goroutines, each worker reusing one
// pooled dense scratch. Ball deliberately serves the balls as of the last
// Sync: the loop resolves each batch of µ questions against one snapshot
// (the paper's semantics), then Syncs at the top of the next loop.
//
// An Engine is not safe for concurrent use; Sync's internal workers are
// the only concurrency it owns.
type Engine struct {
	pg   *ProbGraph
	zeta float64
	// dist and rev mirror Inferred: dist[q] = the sorted ball bt(q);
	// rev[p] lists the sources whose balls contain p, the inverse index
	// bt⁻¹(p). rev rows are unordered sets — invalidation only iterates
	// them — kept duplicate-free by the Sync bookkeeping.
	dist []Ball
	rev  [][]int32

	// dirty lists the source indexes queued for recompute; isDirty marks
	// them by index, so queueing a whole ball costs no hashing.
	dirty   []int32
	isDirty []bool
	full    bool // pending whole-graph rebuild

	recomputes atomic.Int64 // single-source Dijkstra runs, for tests/benchmarks

	// c mirrors invalidation/recompute/rebuild events into externally
	// owned counters (the server's /metrics series). The zero value is
	// fully unwired: every field is a nil-safe *obs.Counter, so the
	// increments below cost one nil check when uninstrumented and one
	// atomic add when wired — never an allocation.
	c obs.EngineCounters
}

// NewEngineObs builds the engine over pg and computes the initial balls
// with a parallel full rebuild, counted in c like every later one. τ must
// be pre-validated (see zetaOf).
func NewEngineObs(pg *ProbGraph, tau float64, c obs.EngineCounters) *Engine {
	e := &Engine{pg: pg, zeta: zetaOf(tau), full: true, c: c}
	e.Sync()
	return e
}

// Recomputes returns the number of single-source Dijkstra runs performed
// so far (including the initial build); tests use it to assert that only
// dirty sources are recomputed.
func (e *Engine) Recomputes() int64 { return e.recomputes.Load() }

// bulkFallback reports whether so many sources are dirty that Sync will
// recompute everything in bulk instead of incrementally.
func (e *Engine) bulkFallback() bool {
	return 2*len(e.dirty) >= len(e.dist)
}

// DetachVertex removes every edge incident to q from the probabilistic
// graph — q can neither be inferred nor relay inference — and invalidates
// exactly the sources whose balls contained q.
func (e *Engine) DetachVertex(q pair.Pair) {
	i := e.pg.g.IndexOf(q)
	if i < 0 {
		return
	}
	if out, in := e.pg.degreeAt(i); out == 0 && in == 0 {
		return // already detached: nothing can have changed
	}
	e.markBallDirty(i)
	e.pg.detachAt(i)
}

// InvalidateTails records that out-edges of the given vertices were
// rewritten in place on the engine's graph (Rewriter.Apply): each tail and
// every source whose ball contained it are re-run at the next Sync.
func (e *Engine) InvalidateTails(tails []int32) {
	for _, i := range tails {
		e.markBallDirty(int(i))
	}
}

// Reset swaps in a freshly built probabilistic graph and schedules a
// parallel full rebuild — the from-scratch reference the in-place rewrite
// is tested against.
func (e *Engine) Reset(pg *ProbGraph) {
	e.pg = pg
	e.InvalidateAll()
}

// InvalidateAll schedules a whole-graph rebuild at the next Sync.
func (e *Engine) InvalidateAll() {
	e.full = true // the rebuild empties the queue
}

// clearDirty empties the recompute queue.
func (e *Engine) clearDirty() {
	for _, i := range e.dirty {
		e.isDirty[i] = false
	}
	e.dirty = e.dirty[:0]
}

// queue adds source i to the recompute queue once.
//
//remp:hotpath
func (e *Engine) queue(i int32) {
	if !e.isDirty[i] {
		e.isDirty[i] = true
		e.dirty = append(e.dirty, i)
	}
}

// markBallDirty queues vertex i and every source whose ball contained it
// at the last Sync.
func (e *Engine) markBallDirty(i int) {
	if e.full {
		return
	}
	e.c.Invalidations.Add(1)
	e.queue(int32(i))
	for _, q := range e.rev[i] {
		e.queue(q)
	}
}

// Sync brings the balls up to date: a pending full rebuild recomputes
// every source, otherwise only the dirty sources are re-run, all fanned
// across GOMAXPROCS goroutines. A clean engine returns immediately.
func (e *Engine) Sync() {
	if e.full {
		e.rebuild()
		e.full = false
		return
	}
	if len(e.dirty) == 0 {
		return
	}
	// When most sources are dirty — a hub vertex of a dense component was
	// touched — recomputing them one by one costs more than a bulk rebuild,
	// which also skips the stale-entry deletions below. Fall back; the
	// rebuild is exact, only the work strategy changes.
	if e.bulkFallback() {
		e.rebuild()
		return
	}
	srcs := make([]int, len(e.dirty))
	for k, i := range e.dirty {
		srcs[k] = int(i)
	}
	slices.Sort(srcs)
	// Drop the dirty sources from every reverse row their stale balls
	// touch before the parallel phase; reinstalling from the fresh balls
	// happens serially afterwards because distinct sources share rev rows.
	touched := make([]int32, 0, 64)
	for _, i := range srcs {
		for _, en := range e.dist[i] {
			touched = append(touched, en.Idx)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for _, j := range touched {
		keep := e.rev[j][:0]
		for _, s := range e.rev[j] {
			if !e.isDirty[s] {
				keep = append(keep, s)
			}
		}
		e.rev[j] = keep
	}
	results := make([]Ball, len(srcs))
	e.pg.inferSources(e.zeta, srcs, results)
	e.recomputes.Add(int64(len(srcs)))
	e.c.Recomputes.Add(int64(len(srcs)))
	for k, i := range srcs {
		e.dist[i] = results[k]
		for _, en := range results[k] {
			e.rev[en.Idx] = append(e.rev[en.Idx], int32(i))
		}
	}
	e.clearDirty()
}

// rebuild recomputes every source from scratch in parallel, sharing
// InferAll's implementation.
func (e *Engine) rebuild() {
	n := e.pg.g.NumVertices()
	if len(e.isDirty) == n {
		e.clearDirty()
	} else { // first build, or Reset onto another vertex set
		e.dirty, e.isDirty = e.dirty[:0], make([]bool, n)
	}
	e.dist = e.pg.computeAll(e.zeta)
	e.rev = buildRev(e.dist, n)
	e.recomputes.Add(int64(n))
	e.c.Recomputes.Add(int64(n))
	e.c.Rebuilds.Add(1)
}

// Ball returns inferred(q) by dense index (q excluded), ascending in
// vertex index, as of the last Sync. The slice is the engine's own;
// callers must not mutate it.
func (e *Engine) Ball(q int) Ball { return e.dist[q] }
