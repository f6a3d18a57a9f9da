package core

import (
	"runtime"
	"sync"

	"repro/internal/ergraph"
)

// Scheduler is a token pool bounding the goroutines a fan-out starts. The
// pipeline's shard-level tasks — per-shard propagation syncs, candidate
// gathering, question selection, re-estimation rebuilds, the
// pre-pipeline's parallel stages and the isolated-pair classifier's
// forest fits — all draw on one package-level pool
// sized at GOMAXPROCS, so every loop and session in the process shares it
// and concurrent loops cannot oversubscribe the machine. Each engine's
// Dijkstra fan-out (propagation's inferSources) starts its own GOMAXPROCS
// workers inside a shard task instead: ForEach must not nest. A Scheduler
// is safe for concurrent use.
type Scheduler struct {
	sem chan struct{}
}

// NewScheduler returns a scheduler with the given worker bound; workers
// <= 0 selects GOMAXPROCS.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{sem: make(chan struct{}, workers)}
}

// pool is the process's one shard-work pool: every pipeline and loop
// fans out on it, and so does every ER-graph build in the process.
var pool = NewScheduler(0)

func init() { ergraph.SetRunner(pool) }

// ForEach runs fn(0) … fn(n-1), fanning across up to the scheduler's
// worker bound. It returns when every call has finished. fn must not call
// ForEach on the same scheduler (a worker token is held for the duration
// of one fn). n == 1 runs inline with no goroutine.
func (s *Scheduler) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.sem <- struct{}{}
		go func(i int) {
			defer func() {
				<-s.sem
				wg.Done()
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
}
