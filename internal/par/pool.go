// Package par is the process's one CPU fan-out: a scheduler bounded by
// GOMAXPROCS helper tokens, and the grain rule every data-parallel stage
// cuts its work by. It is a leaf, so that every package down to kb can
// run on the same pool.
package par

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner runs n independent tasks, possibly in parallel. *Scheduler
// satisfies it; the pre-pipeline packages take one so that a caller can
// run them serially (nil) or on the process's pool.
type Runner interface {
	ForEach(n int, fn func(i int))
}

// Scheduler is a CPU fan-out bounded by tokens. A ForEach never waits for
// a token: its caller works through the tasks itself, and each token free
// when the call starts adds one helper goroutine beside it. So helpers
// never outnumber tokens, and a task may call ForEach again: with every
// token taken, the nested call runs in its caller. A Scheduler is safe
// for concurrent use.
type Scheduler struct {
	tokens chan struct{}
}

// NewScheduler returns a scheduler with the given number of helper
// tokens; zero runs every task in its caller.
func NewScheduler(tokens int) *Scheduler {
	return &Scheduler{tokens: make(chan struct{}, max(tokens, 0))}
}

// pool has GOMAXPROCS tokens, so a caller and its helpers are one more
// goroutine than there are CPUs: a CPU whose task ended early runs the
// third while the others finish theirs. On two cores that resolved
// remp-e2e's loop-clustered workload 2.5 % faster than GOMAXPROCS−1
// tokens (median of 11 paired runs, 10 of them faster).
var pool = NewScheduler(runtime.GOMAXPROCS(0))

// Pool returns the process's one scheduler: every pipeline, loop, engine
// and pre-pipeline stage in the process fans out on it, so concurrent
// sessions share the machine instead of oversubscribing it.
func Pool() *Scheduler { return pool }

// ForEach runs fn(0) … fn(n-1), each exactly once, and returns when every
// call has finished. The caller and its helpers take the tasks from one
// cursor, so fn must write its result by index.
func (s *Scheduler) ForEach(n int, fn func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
recruit:
	for h := 1; h < n; h++ {
		select {
		case s.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-s.tokens
					wg.Done()
				}()
				work()
			}()
		default:
			break recruit
		}
	}
	work()
	wg.Wait()
}

// Range is a half-open [Lo, Hi) range of indexes.
type Range struct{ Lo, Hi int }

// Width is how many workers a fan-out through a Runner starts:
// GOMAXPROCS, the most tasks one caller and its helpers run at once on
// the process's pool. More workers would only multiply the per-worker
// scratch memory.
func Width() int { return runtime.GOMAXPROCS(0) }

// ChunkRanges splits n items into contiguous ranges: up to chunks of them
// when r is set, a single one when it is nil. Per-item cost is taken as
// homogeneous, so the ranges are of equal size; their number never
// affects a result.
func ChunkRanges(n int, r Runner, chunks int) []Range {
	if n == 0 {
		return nil
	}
	nc := 1
	if r != nil {
		nc = max(1, min(chunks, n))
	}
	out := make([]Range, nc)
	for i := 0; i < nc; i++ {
		out[i] = Range{Lo: i * n / nc, Hi: (i + 1) * n / nc}
	}
	return out
}

// grainsPerWorker is how many grains Grains cuts per worker: enough that
// a worker whose grains ran fast takes another while a slower one ends
// its own, few enough that per-grain results stay a handful of slices.
const grainsPerWorker = 4

// Grains cuts n items into the grains of a fan-out through r: contiguous
// ranges of at least floor items, grainsPerWorker per worker of Width
// when n allows. A nil r, or fewer than 2·floor items, gives one grain,
// so that a small input runs in its caller and pays for no helper. The
// cut never affects a result.
func Grains(r Runner, n, floor int) []Range {
	return ChunkRanges(n, r, min(grainsPerWorker*Width(), n/max(floor, 1)))
}

// Work runs a fan-out over grains through r: min(Width, len(grains))
// workers, one pool task each (one, in the caller, when r is nil). A
// worker sets up its scratch once and then ranges over next, which hands
// out every grain exactly once, with its index, from one atomic cursor;
// work writes its results by grain index, so they do not depend on which
// worker ran which grain.
func Work(r Runner, grains []Range, work func(next iter.Seq2[int, Range])) {
	var cursor atomic.Int64
	next := func(yield func(int, Range) bool) {
		for g := int(cursor.Add(1)) - 1; g < len(grains); g = int(cursor.Add(1)) - 1 {
			if !yield(g, grains[g]) {
				return
			}
		}
	}
	workers := min(1, len(grains))
	if r != nil {
		workers = min(Width(), len(grains))
	}
	RunAll(r, workers, func(int) { work(next) })
}

// RunAll executes fn(0..n-1) through r, or serially when r is nil.
func RunAll(r Runner, n int, fn func(int)) {
	if r == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r.ForEach(n, fn)
}
