package core

import (
	"runtime"

	"repro/internal/pair"
)

// Scheduler is pair.Scheduler under the name the benchmark harness
// builds its staged Prepare with; core itself runs on pair.Pool.
type Scheduler = pair.Scheduler

// NewScheduler returns a scheduler with workers helper tokens; workers
// <= 0 selects GOMAXPROCS, as pair.Pool has.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return pair.NewScheduler(workers)
}
