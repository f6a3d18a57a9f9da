package bench

import (
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/selection"
)

// runnerStats accumulates what the timing decorator sees: per-operation
// call counts and wall time, and per-shard busy time. Shard operations
// fan out concurrently, hence the atomics; one runnerStats may be shared
// by many sessions.
type runnerStats struct {
	gatherNS, rankNS, ballNS, rebuildNS              atomic.Int64
	gatherN, rankN, ballN, rebuildN, resolveN, dampN atomic.Int64
	shardBusy                                        [Shards]atomic.Int64
}

// busyMaxOverMean is the slowest shard's busy time over the mean: a
// gather waits for its slowest shard, so this bounds what sharding can
// give on two cores.
func (rs *runnerStats) busyMaxOverMean() float64 {
	var sum, max int64
	for i := range rs.shardBusy {
		b := rs.shardBusy[i].Load()
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(rs.shardBusy)) / float64(sum)
}

// report writes the decorator's counters, divided by div (the number of
// loops they accumulate over) so the numbers read per Resolve.
func (rs *runnerStats) report(r *Report, div float64) {
	if div <= 0 {
		div = 1
	}
	sec := func(a *atomic.Int64) float64 { return float64(a.Load()) / 1e9 / div }
	cnt := func(a *atomic.Int64) float64 { return float64(a.Load()) / div }
	r.set("core.runner.gather_s", "s", sec(&rs.gatherNS))
	r.set("core.runner.gather_n", "count", cnt(&rs.gatherN))
	r.set("core.runner.rank_s", "s", sec(&rs.rankNS))
	r.set("core.runner.rank_n", "count", cnt(&rs.rankN))
	r.set("core.runner.ball_s", "s", sec(&rs.ballNS))
	r.set("core.runner.ball_n", "count", cnt(&rs.ballN))
	r.set("core.runner.rebuild_s", "s", sec(&rs.rebuildNS))
	r.set("core.runner.rebuild_n", "count", cnt(&rs.rebuildN))
	r.set("core.runner.resolve_n", "count", cnt(&rs.resolveN))
	r.set("core.runner.damp_n", "count", cnt(&rs.dampN))
	r.set("core.runner.shard_busy_max_over_mean", "ratio", rs.busyMaxOverMean())
}

// timedRunner decorates the in-process shard runner with wall-clock
// accounting. It forwards every operation unchanged, so results are
// those of core.NewLocalRunner.
type timedRunner struct {
	inner core.ShardRunner
	st    *runnerStats
}

// timedRunnerFactory is injected through remp.Options.Runner /
// core.Config.Runner in traced runs.
func timedRunnerFactory(st *runnerStats) core.RunnerFactory {
	return func(p *core.Prepared) (core.ShardRunner, error) {
		inner, err := core.NewLocalRunner(p)
		if err != nil {
			return nil, err
		}
		return &timedRunner{inner: inner, st: st}, nil
	}
}

func (t *timedRunner) busy(s int, total, n *atomic.Int64, t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	total.Add(d)
	n.Add(1)
	if s >= 0 && s < len(t.st.shardBusy) {
		t.st.shardBusy[s].Add(d)
	}
}

func (t *timedRunner) Resolve(s int, q pair.Pair, detach bool) error {
	t.st.resolveN.Add(1)
	return t.inner.Resolve(s, q, detach)
}

func (t *timedRunner) Damp(s int, q pair.Pair, prior float64) error {
	t.st.dampN.Add(1)
	return t.inner.Damp(s, q, prior)
}

func (t *timedRunner) Gather(s int) ([]selection.Candidate, bool, error) {
	defer t.busy(s, &t.st.gatherNS, &t.st.gatherN, time.Now())
	return t.inner.Gather(s)
}

func (t *timedRunner) Rank(s, mu int) ([]selection.Pick, error) {
	defer t.busy(s, &t.st.rankNS, &t.st.rankN, time.Now())
	return t.inner.Rank(s, mu)
}

func (t *timedRunner) Ball(s int, q pair.Pair) ([]pair.Pair, error) {
	defer t.busy(s, &t.st.ballNS, &t.st.ballN, time.Now())
	return t.inner.Ball(s, q)
}

func (t *timedRunner) Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error {
	defer t.busy(s, &t.st.rebuildNS, &t.st.rebuildN, time.Now())
	return t.inner.Rebuild(s, est)
}

func (t *timedRunner) Invalidate(s int) error       { return t.inner.Invalidate(s) }
func (t *timedRunner) Release(s int) (int64, error) { return t.inner.Release(s) }
func (t *timedRunner) Close() (int64, error)        { return t.inner.Close() }
