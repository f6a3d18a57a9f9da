package pair

import (
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

// Width is how many chunks a fan-out through a Runner cuts its work
// into: GOMAXPROCS, the most tasks one caller and its helpers run at once
// on the process's pool. More chunks would only multiply the per-chunk
// scratch memory.
func Width() int { return runtime.GOMAXPROCS(0) }

// ChunkRanges splits n items into contiguous ranges for RunAll: up to
// chunks of them (callers pass Width) when r is set, a single one when it
// is nil. Per-item cost is taken as homogeneous, so the ranges are
// of equal size; their number never affects a result.
func ChunkRanges(n int, r Runner, chunks int) []Range {
	if n == 0 {
		return nil
	}
	nc := 1
	if r != nil {
		nc = min(chunks, n)
	}
	out := make([]Range, nc)
	for i := 0; i < nc; i++ {
		out[i] = Range{Lo: i * n / nc, Hi: (i + 1) * n / nc}
	}
	return out
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
