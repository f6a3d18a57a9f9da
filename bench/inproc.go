package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/remp"
)

// resolveOpts are the options every in-process Resolve of a workload
// uses; the same values travel to the server as OptionsDTO.
type resolveOpts struct {
	seed         int64
	deduce       bool
	budget       int
	noClassifier bool
}

func (o resolveOpts) public() remp.Options {
	return remp.Options{Shards: Shards, Seed: o.seed, Deduce: o.deduce, Budget: o.budget, DisableIsolatedClassifier: o.noClassifier}
}

// resolvePublic is the untraced path: the public remp.Resolve.
func resolvePublic(ds *datasets.Dataset, l labeler, o resolveOpts) (*remp.Result, error) {
	return remp.Resolve(remp.Dataset{K1: ds.K1, K2: ds.K2}, &asker{l: l}, o.public())
}

// loopProbe is what one traced in-process Resolve observed.
type loopProbe struct {
	prepareS, loopS float64
	stageNS         map[string]int64
	recomputes      int64
	rebuilds        int64
	invalidations   int64
	allocs          uint64
	allocBytes      uint64
}

// resolveTraced runs the same resolution as resolvePublic one level
// down — core.Prepare plus a session driven exactly as remp.Resolve
// drives it — because the instrumentation hooks (Config.Obs, the loop
// trace, the engine counters) are not reachable through remp.Options.
// The timing runner decorator rides in through Config.Runner. Callers
// check the result against the public path's.
func resolveTraced(tr *Tracer, traceID, parent int64, ds *datasets.Dataset, l labeler, o resolveOpts, rs *runnerStats) (*remp.Result, loopProbe, error) {
	var lp loopProbe
	lt := obs.NewLoopTrace(obs.WallClock())
	eng := obs.EngineCounters{Recomputes: obs.NewCounter(), Invalidations: obs.NewCounter(), Rebuilds: obs.NewCounter()}
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Shards, cfg.Deduce, cfg.Budget = o.seed, Shards, o.deduce, o.budget
	cfg.ClassifyIsolated = !o.noClassifier
	cfg.Obs = &obs.Pipeline{Trace: lt, Engine: eng}
	if rs != nil {
		cfg.Runner = timedRunnerFactory(rs)
	}

	var p *core.Prepared
	t0 := time.Now()
	tr.Do(traceID, parent, "core", "core.prepare", func() { p = core.Prepare(ds.K1, ds.K2, cfg) })
	lp.prepareS = seconds(time.Since(t0))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	loopID := tr.Start(traceID, parent, "core", "core.loop")
	s := session.New("session", p, nil)
	for !s.Done() {
		batch := s.NextBatch()
		if len(batch) == 0 {
			tr.End(loopID)
			return nil, lp, fmt.Errorf("session stalled with no open questions")
		}
		q := batch[0]
		if err := s.DeliverPair(q.Pair, session.ToCrowd(l.labels(q.Pair))); err != nil {
			tr.End(loopID)
			return nil, lp, err
		}
	}
	res := s.Result()
	tr.End(loopID)
	lp.loopS = seconds(time.Since(t0))
	runtime.ReadMemStats(&after)
	lp.allocs, lp.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	lp.stageNS = lt.Totals()
	lp.recomputes, lp.rebuilds, lp.invalidations = eng.Recomputes.Value(), eng.Rebuilds.Value(), eng.Invalidations.Value()
	return &remp.Result{
		Matches: res.Matches, Confirmed: res.Confirmed, Propagated: res.Propagated,
		IsolatedPredicted: res.IsolatedPredicted, NonMatches: res.NonMatches,
		Questions: res.Questions, Deduced: res.Deduced, Loops: res.Loops,
	}, lp, nil
}

// reportLoop writes the core.loop.* and propagation counter metrics of
// traced in-process resolves, averaged per Resolve.
func reportLoop(r *Report, probes []loopProbe) {
	n := float64(len(probes))
	if n == 0 {
		return
	}
	var loopS, allocs, allocMB, rec, reb, inv float64
	stage := map[string]float64{}
	for _, lp := range probes {
		loopS += lp.loopS
		allocs += float64(lp.allocs)
		allocMB += float64(lp.allocBytes) / 1e6
		rec += float64(lp.recomputes)
		reb += float64(lp.rebuilds)
		inv += float64(lp.invalidations)
		for k, v := range lp.stageNS {
			stage[k] += float64(v) / 1e9
		}
	}
	covered := 0.0
	for _, st := range []string{"infer", "select", "apply", "reestimate"} {
		r.set("core.loop."+st+"_s", "s", stage[st]/n)
		covered += stage[st] / n
	}
	loopS /= n
	r.set("core.loop_s", "s", loopS)
	r.set("core.loop_other_s", "s", loopS-covered)
	if loopS > 0 {
		r.set("core.loop_covered_ratio", "ratio", covered/loopS)
	}
	r.set("core.loop_allocs", "count", allocs/n)
	r.set("core.loop_alloc_mb", "MB", allocMB/n)
	r.set("propagation.recomputes", "count", rec/n)
	r.set("propagation.rebuilds", "count", reb/n)
	r.set("propagation.invalidations", "count", inv/n)
}

// preparedHeapMB measures the live heap one Prepared pipeline holds:
// HeapAlloc after a forced GC with the pipeline reachable, minus the
// same reading before it was built (the KBs are live in both).
func preparedHeapMB(ds remp.Dataset, o remp.Options) (float64, error) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	p, err := remp.PreparePipeline(ds, o)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	after := m.HeapAlloc
	runtime.KeepAlive(p)
	return (float64(after) - float64(before)) / 1e6, nil
}

// medianSetup runs setup n times — tearing down all but the last — and
// records the median as setup_s, so one slow start (a cold build, a
// port retry) does not stand for the workload's set-up cost.
func medianSetup[T any](r *Report, n int, setup func() (T, error), teardown func(T)) (T, error) {
	var last T
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		samples = append(samples, seconds(time.Since(t0)))
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	r.setSamples("setup_s", "s", samples)
	return last, nil
}
