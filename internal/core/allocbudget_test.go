//go:build !race

package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/datasets"
)

// TestPrepareAllocBudget bounds what one Prepare of scale-50000 allocates
// and how many collections that sets off. The budgets are half of what
// Prepare took before its scratch was sized by counting and shared within
// the call (85.0 MB, 6.0–6.4 collections): the label and literal words
// cut a batch at a time in one Workspace, blocking's signatures bucketed
// straight from the labels and its candidates kept in pages, the value
// tables counted first, the vectors kept flat. After a warm-up Prepare,
// three Prepares are measured, each after a forced collection, and the
// median is held to the budgets: the bytes are the same every time, but
// how many cycles fall inside one Prepare depends on where they start, and
// about one Prepare in a hundred ran one more than its neighbours. The
// counts are process-wide, so the test never runs in parallel with
// another, and it is built without -race, whose instrumentation
// allocates.
func TestPrepareAllocBudget(t *testing.T) {
	const maxMB, maxGC = 42.5, 3
	ds := datasets.Scale(10, 50_000)
	cfg := DefaultConfig()
	cfg.Shards = 4
	_ = Prepare(ds.K1, ds.K2, cfg)

	var mbs []float64
	var gcs []uint32
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := Prepare(ds.K1, ds.K2, cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p)
		mbs = append(mbs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		gcs = append(gcs, after.NumGC-before.NumGC)
		t.Logf("one Prepare of %s: %.1f MB in %d objects, %d collections", ds.Name, mbs[len(mbs)-1], after.Mallocs-before.Mallocs, gcs[len(gcs)-1])
	}
	slices.Sort(mbs)
	slices.Sort(gcs)
	if mbs[1] > maxMB {
		t.Errorf("Prepare allocated %.1f MB (median of %v), budget %.1f MB", mbs[1], mbs, maxMB)
	}
	if gcs[1] > maxGC {
		t.Errorf("Prepare ran %d collections (median of %v), budget %d", gcs[1], gcs, maxGC)
	}
}
