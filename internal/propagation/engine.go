package propagation

import (
	"slices"
	"sync/atomic"

	"repro/internal/obs"
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
// Balls exist to price candidate questions, so the engine keeps them for
// live sources only. Retire takes a source no gather will offer again
// (resolved or hard) out for good: its ball is still served until the next
// Sync — the snapshot the rest of the batch reads — and that Sync drops it
// and deletes the source from every rev row. The argument above reads only
// the rows of the sources it is about, so it still holds for every live
// one; a retired source has no reader after that Sync, so neither a later
// invalidation nor a rebuild ever computes it again.
//
// Mutators (DetachVertex, InvalidateTails, Retire, InvalidateAll)
// only record invalidations; Sync applies them, fanning one bounded
// Dijkstra per dirty live source out on the process's pool — a bulk
// rebuild only when every live source is dirty — each worker reusing one
// pooled dense scratch and refilling the source's previous ball in place.
// Ball deliberately serves the balls as of the last Sync: the loop resolves
// each batch of µ questions against one snapshot (the paper's semantics),
// then Syncs at the top of the next loop; every reader copies out of a
// ball before that.
//
// An Engine is not safe for concurrent use; Sync's internal workers are
// the only concurrency it owns.
type Engine struct {
	pg   *ProbGraph
	zeta float64
	// dist[q] is the sorted ball bt(q) of a live source, nil once q is
	// retired and synced; rev[p] lists the live sources whose balls
	// contain p, the inverse index bt⁻¹(p). rev rows are ascending after a
	// rebuild and unordered sets after an incremental Sync — invalidation
	// only iterates them — kept duplicate-free by the Sync bookkeeping.
	dist []Ball
	rev  [][]int32
	// revFlat backs the rev rows of the last bulk rebuild and revStart
	// holds their offsets; the next bulk rebuild refills both (buildRev).
	revFlat, revStart []int32
	// retired marks the sources taken out by Retire; live counts the rest.
	retired []bool
	live    int

	// dirty lists the source indexes queued for the next Sync — to recompute,
	// or, if retired, to drop; isDirty marks them by index, so queueing a
	// whole ball costs no hashing.
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

// bulkFallback reports whether Sync, given k dirty live sources, will
// rebuild in bulk instead of incrementally: only when every live source is
// dirty, so the rebuild runs no Dijkstra the incremental path would not.
func (e *Engine) bulkFallback(k int) bool {
	return k > 0 && k >= e.live
}

// Retire takes source i out of the engine for good: no gather will offer
// it as a question again. Its ball is served until the next Sync, which
// drops it; from then on no Sync recomputes i.
func (e *Engine) Retire(i int) {
	if !e.retired[i] {
		e.retired[i] = true
		e.live--
		e.queue(int32(i))
	}
}

// Retired reports whether source i was retired.
func (e *Engine) Retired(i int) bool { return e.retired[i] }

// DetachVertex removes every edge incident to vertex i from the
// probabilistic graph — i can neither be inferred nor relay inference — and
// invalidates exactly the sources whose balls contained i. Like every
// engine operation it takes the vertex's index in the engine's graph.
func (e *Engine) DetachVertex(i int) {
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
// every live source, otherwise only the dirty live sources are re-run (in
// bulk when that is all of them), all fanned out on the process's pool,
// and the retired ones are dropped. A clean engine returns immediately.
func (e *Engine) Sync() {
	if e.full {
		e.rebuild()
		e.full = false
		return
	}
	if len(e.dirty) == 0 {
		return
	}
	srcs := make([]int32, 0, len(e.dirty))
	for _, i := range e.dirty {
		if !e.retired[i] {
			srcs = append(srcs, i)
		}
	}
	// When every live source is dirty, a bulk rebuild runs the same
	// Dijkstras and rebuilds the reverse index in one pass instead of the
	// stale-entry deletions below. With one clean source left it would
	// recompute that source for nothing, so the incremental path keeps it.
	// The rebuild is exact: only the work strategy changes.
	if e.bulkFallback(len(srcs)) {
		e.rebuild()
		return
	}
	slices.Sort(srcs)
	// Drop every queued source from the reverse rows its stale ball touches
	// before the parallel phase — each row filtered once, the pooled
	// scratch's stamps marking the rows done; reinstalling the live ones
	// from their fresh balls happens serially afterwards because distinct
	// sources share rows.
	sc := getScratch(len(e.rev))
	sc.begin()
	for _, i := range e.dirty {
		for _, en := range e.dist[i] {
			if j := en.Idx; !sc.visited(j) {
				sc.reach(j, 0)
				keep := e.rev[j][:0]
				for _, s := range e.rev[j] {
					if !e.isDirty[s] {
						keep = append(keep, s)
					}
				}
				e.rev[j] = keep
			}
		}
		if e.retired[i] {
			e.dist[i] = nil
		}
	}
	putScratch(sc)
	e.pg.inferSources(e.zeta, srcs, e.dist)
	e.recomputes.Add(int64(len(srcs)))
	e.c.Recomputes.Add(int64(len(srcs)))
	for _, i := range srcs {
		for _, en := range e.dist[i] {
			e.rev[en.Idx] = append(e.rev[en.Idx], i)
		}
	}
	e.clearDirty()
}

// rebuild recomputes every live source from scratch in parallel, into its
// previous ball, and rebuilds the reverse index from the fresh balls.
func (e *Engine) rebuild() {
	n := e.pg.g.NumVertices()
	if len(e.retired) != n { // first build, or Reset onto another vertex set
		e.dist, e.retired, e.isDirty, e.live = make([]Ball, n), make([]bool, n), make([]bool, n), n
		e.dirty = e.dirty[:0]
	}
	e.clearDirty()
	srcs := make([]int32, 0, e.live)
	for i, r := range e.retired {
		if r {
			e.dist[i] = nil
		} else {
			srcs = append(srcs, int32(i))
		}
	}
	e.pg.inferSources(e.zeta, srcs, e.dist)
	e.buildRev()
	e.recomputes.Add(int64(len(srcs)))
	e.c.Recomputes.Add(int64(len(srcs)))
	e.c.Rebuilds.Add(1)
}

// Ball returns inferred(q) by dense index (q excluded), ascending in
// vertex index, as of the last Sync — nil if q was retired before it. The
// slice is the engine's own and is refilled by the next Sync: callers copy
// out what they keep and must not mutate it.
func (e *Engine) Ball(q int) Ball { return e.dist[q] }
