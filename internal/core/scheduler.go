package core

import (
	"runtime"

	"repro/internal/par"
)

// Scheduler is par.Scheduler under the name the benchmark harness
// builds its staged Prepare with; core itself runs on par.Pool.
type Scheduler = par.Scheduler

// NewScheduler returns a scheduler with workers helper tokens; workers
// <= 0 selects GOMAXPROCS, as par.Pool has.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return par.NewScheduler(workers)
}
