package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Metric is one named measurement of a run.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a timing (0 for plain counts and
	// ratios); Tail names and holds the highest of p90/p95/p99 that has
	// at least ten samples beyond it. Both are printed by the
	// human-readable report only.
	N        int     `json:"-"`
	Min, Max float64 `json:"-"`
	Tail     float64 `json:"-"`
	TailName string  `json:"-"`
}

// Spec names one metric of the contract with its unit.
type Spec struct {
	Name string
	Unit string
}

// EndToEnd lists the end-to-end metrics every untraced run emits, in
// the order of BENCHMARK.json. Each is defined on every workload (the
// README's metric table says how); the serving latencies, which only
// the serve-* workloads have, are per-layer metrics.
var EndToEnd = []Spec{
	{"setup_s", "s"},
	{"prepare_s", "s"},
	{"prepared_heap_mb", "MB"},
	{"resolve_s", "s"},
	{"questions", "count"},
	{"f1", "ratio"},
	{"answers_per_s", "1/s"},
}

// PerLayer lists the per-layer metrics every traced run emits, in the
// order of BENCHMARK.json. A layer a workload does not exercise reads 0.
var PerLayer = []Spec{
	// Serving latencies: end-to-end in nature, but only serve-* has them.
	{"create_ms_p50", "ms"},
	{"ack_ms_p50", "ms"},
	{"turn_ms_p50", "ms"},
	{"turn_ms_p95", "ms"},
	{"rerun_ms_p50", "ms"},
	{"recover_s", "s"},

	{"kb.open_snapshot_s", "s"},
	{"kb.read_tsv_s", "s"},
	{"kb.snapshot_mb", "MB"},
	{"blocking.generate_s", "s"},
	{"blocking.candidates", "count"},
	{"blocking.initial", "count"},
	{"attrmatch.find_matches_s", "s"},
	{"attrmatch.matches", "count"},
	{"simvec.build_all_s", "s"},
	{"simvec.prune_s", "s"},
	{"simvec.retained", "count"},
	{"simvec.retained_ratio", "ratio"},
	{"ergraph.build_s", "s"},
	{"ergraph.vertices", "count"},
	{"ergraph.edges", "count"},
	{"partition.split_s", "s"},
	{"partition.components", "count"},
	{"partition.shard_size_max_over_mean", "ratio"},
	{"consistency.fit_s", "s"},
	{"consistency.labels", "count"},
	{"propagation.build_prob_s", "s"},
	{"propagation.infer_all_s", "s"},
	{"propagation.recomputes", "count"},
	{"propagation.rebuilds", "count"},
	{"propagation.invalidations", "count"},
	{"selection.greedy_select_s", "s"},
	{"selection.candidates", "count"},

	{"core.prepare_s", "s"},
	{"core.prepare_other_s", "s"},
	{"core.prepare_covered_ratio", "ratio"},
	{"core.loop_s", "s"},
	{"core.loop.infer_s", "s"},
	{"core.loop.select_s", "s"},
	{"core.loop.apply_s", "s"},
	{"core.loop.reestimate_s", "s"},
	{"core.loop_other_s", "s"},
	{"core.loop_covered_ratio", "ratio"},
	{"core.runner.gather_s", "s"},
	{"core.runner.gather_n", "count"},
	{"core.runner.rank_s", "s"},
	{"core.runner.rank_n", "count"},
	{"core.runner.ball_s", "s"},
	{"core.runner.ball_n", "count"},
	{"core.runner.rebuild_s", "s"},
	{"core.runner.rebuild_n", "count"},
	{"core.runner.resolve_n", "count"},
	{"core.runner.damp_n", "count"},
	{"core.runner.shard_busy_max_over_mean", "ratio"},
	{"core.loop_allocs", "count"},
	{"core.loop_alloc_mb", "MB"},

	{"deduce.hits", "count"},
	{"deduce.saved_ratio", "ratio"},

	{"session.deliver_disk_ms_p50", "ms"},
	{"session.deliver_mem_ms_p50", "ms"},
	{"session.store.append_s", "s"},
	{"session.store.append_n", "count"},
	{"session.store.fsync_s", "s"},
	{"session.store.fsync_n", "count"},
	{"session.store.snapshot_s", "s"},
	{"session.store.snapshot_n", "count"},
	{"session.wal_bytes_per_answer", "B"},
	{"session.cache.hits", "count"},
	{"session.cache.misses", "count"},
	{"session.cache.reservations", "count"},
	{"session.cache.hit_ratio", "ratio"},
	{"session.wal_replayed", "count"},
	{"session.recovered", "count"},
	{"session.recover_ms_per_session", "ms"},
	{"session.persist_failures", "count"},

	{"server.http.create_s", "s"},
	{"server.http.create_n", "count"},
	{"server.http.answers_s", "s"},
	{"server.http.answers_n", "count"},
	{"server.http.batch_s", "s"},
	{"server.http.batch_n", "count"},
	{"server.http.result_s", "s"},
	{"server.http.result_n", "count"},
	{"server.ack_wire_ms", "ms"},
	{"server.ack_ms_p99", "ms"},
	{"server.create_ms_p95", "ms"},
	{"server.http_errors", "count"},
	{"server.answers_rejected", "count"},
	{"server.cpu_s", "s"},
	{"server.max_rss_mb", "MB"},

	{"cluster.rpc_bytes_per_turn", "B"},
	{"cluster.rpc_frames_per_turn", "count"},
	{"cluster.rpc_bytes_total", "B"},
	{"cluster.frame_roundtrip_us", "us"},
	{"cluster.rpc_retries", "count"},
	{"cluster.reassignments", "count"},
	{"cluster.worker_downs", "count"},
	{"cluster.worker_cpu_s", "s"},
	{"cluster.worker_max_rss_mb", "MB"},

	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.nproc", "count"},
	{"bench.gomaxprocs", "count"},
}

// Report is the outcome of one run of one workload.
type Report struct {
	Workload string
	Seed     int64
	Seconds  int
	Traced   bool
	// Attempted and Failed count operations: reps, sessions, HTTP calls,
	// correctness checks. A failed operation contributes to no latency
	// metric.
	Attempted int
	Failed    int
	// Failures holds one line per failed operation or check (capped).
	Failures []string
	// Metrics holds everything the run measured, contract metrics and
	// extras alike; Line picks the contract's set.
	Metrics map[string]Metric
}

func newReport(workload string, seed int64, seconds int, traced bool) *Report {
	return &Report{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Metrics: map[string]Metric{}}
}

// Correct reports whether every attempted operation and check passed.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// ok counts one attempted operation that succeeded.
func (r *Report) ok() { r.Attempted++ }

// fail counts one attempted operation that failed, with its reason.
func (r *Report) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check.
func (r *Report) check(cond bool, format string, args ...any) {
	if cond {
		r.ok()
		return
	}
	r.fail(format, args...)
}

// set records a plain value.
func (r *Report) set(name, unit string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// setSamples records the median of timing samples together with their
// count and tail percentile.
func (r *Report) setSamples(name, unit string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	m := Metric{Value: median(samples), Unit: unit, N: len(samples), Min: percentile(samples, 0), Max: percentile(samples, 1)}
	m.TailName, m.Tail = tail(samples)
	r.Metrics[name] = m
}

// resultLine is the last line of standard output: the contract's JSON.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Line renders the contract's result line: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one. A missing
// end-to-end metric is a failed check (the line then says incorrect); a
// per-layer metric the workload does not exercise reads 0.
func (r *Report) Line() string {
	specs := EndToEnd
	if r.Traced {
		specs = PerLayer
	}
	out := resultLine{Metrics: make(map[string]Metric, len(specs))}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok && !r.Traced {
			r.fail("end-to-end metric %s was not measured", s.Name)
		}
		m.Unit = s.Unit
		out.Metrics[s.Name] = m
	}
	out.Correct, out.Attempted, out.Failed = r.Correct(), r.Attempted, r.Failed
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(data)
}

// Print writes the human-readable report: every measured metric by
// name with its unit, sample count and tail percentile.
func (r *Report) Print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  seconds %d  %s ==\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-40s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
		}
		if m.Max > 0 {
			line += fmt.Sprintf("  min=%.6g max=%.6g", m.Min, m.Max)
		}
		if m.TailName != "" {
			line += fmt.Sprintf("  %s=%.6g", m.TailName, m.Tail)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// percentile returns the p-quantile (0 < p <= 1) of samples by the
// nearest-rank method (the loadgen convention); it sorts a copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint of the two central samples for even counts,
// so a run of few reps does not snap to one of them.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p99/p95/p90 with at least ten samples
// beyond it, or "" when even p90 has fewer.
func tail(samples []float64) (string, float64) {
	n := len(samples)
	for _, t := range []struct {
		name string
		pct  int
	}{{"p99", 99}, {"p95", 95}, {"p90", 90}} {
		if rank := (n*t.pct + 99) / 100; n-rank >= 10 { // nearest rank, in integers
			return t.name, percentile(samples, float64(t.pct)/100)
		}
	}
	return "", 0
}

func seconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
