package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/pair"
	"repro/remp"
)

// tinySizes keeps every workload to a fraction of a second of work.
func tinySizes() *Sizes {
	return &Sizes{
		Setups: 1, ScaleN: 600, PrepareReps: 2, ScaleLoopN: 200, ScaleResolves: 1,
		Clusters: 16, MeanSize: 12, LoopDatasets: 2, LoopReps: 2,
		DiskSpecs: 1, RecoverSessions: 2, RecoverCycles: 2, ClusterSessions: 2, RefSpecs: 1,
	}
}

func runTiny(t *testing.T, workload string, traced bool) *Report {
	t.Helper()
	rep, err := Run(Config{Workload: workload, Seed: 7, Seconds: 1, Traced: traced, BenchDir: ".", Sizes: tinySizes()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	line := rep.Line() // also counts a missing end-to-end metric as a failure
	if !rep.Correct() {
		t.Fatalf("%s (traced %v): %d of %d operations failed: %v", workload, traced, rep.Failed, rep.Attempted, rep.Failures)
	}
	var got resultLine
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("result line is not JSON: %v\n%s", err, line)
	}
	want := EndToEnd
	if traced {
		want = PerLayer
	}
	if len(got.Metrics) != len(want) {
		t.Fatalf("result line carries %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, s := range want {
		m, ok := got.Metrics[s.Name]
		if !ok || m.Unit != s.Unit {
			t.Errorf("metric %s: present %v, unit %q, want unit %q", s.Name, ok, m.Unit, s.Unit)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never read 0", s.Name, m.Value)
		}
	}
	return rep
}

func TestBatchWorkloads(t *testing.T) {
	for _, w := range []string{"prepare-scale", "loop-clustered"} {
		runTiny(t, w, false)
		rep := runTiny(t, w, true)
		for _, name := range []string{"core.prepare_covered_ratio", "core.loop_covered_ratio", "blocking.generate_s", "core.runner.gather_n"} {
			if rep.Metrics[name].Value <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", w, name, rep.Metrics[name].Value)
			}
		}
		if _, err := os.Stat("out/trace-" + w + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w, err)
		}
	}
}

// TestServeDisk covers the real binaries over HTTP, the rerun cache
// tier, and two kill/recover cycles, byte-checked against the oracle.
func TestServeDisk(t *testing.T) {
	rep := runTiny(t, "serve-disk", false)
	for _, name := range []string{"create_ms_p50", "ack_ms_p50", "turn_ms_p50", "rerun_ms_p50", "recover_s"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	if n := rep.Metrics["recover_s"].N; n != 2 {
		t.Errorf("recover_s has %d samples, want one per kill (2)", n)
	}
}

// TestServeClusterTraced covers worker children, the frame relay and
// the /metrics-derived layers.
func TestServeClusterTraced(t *testing.T) {
	rep := runTiny(t, "serve-cluster", true)
	for _, name := range []string{"cluster.rpc_bytes_per_turn", "cluster.frame_roundtrip_us", "server.http.answers_n", "session.store.fsync_n", "session.deliver_disk_ms_p50", "server.cpu_s"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	if v := rep.Metrics["cluster.worker_downs"].Value; v != 0 {
		t.Errorf("cluster.worker_downs = %v, want 0", v)
	}
}

// TestShardsAgree pins the reason Shards can be fixed at 4 everywhere:
// a 4-shard resolution equals the monolithic one.
func TestShardsAgree(t *testing.T) {
	ds := datasets.Clustered(60, 30, 3)
	l := labeler{seed: 3, gold: ds.Gold}
	run := func(shards int) eval.Outcome {
		res, err := remp.Resolve(remp.Dataset{K1: ds.K1, K2: ds.K2}, &asker{l: l}, remp.Options{Shards: shards, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return eval.Outcome{Matches: pair.Set(res.Matches), NonMatches: pair.Set(res.NonMatches)}
	}
	if err := eval.ShardDivergence(run(1), run(Shards)); err != nil {
		t.Fatalf("%d shards diverge from 1: %v", Shards, err)
	}
}

func TestFailuresSurface(t *testing.T) {
	r := newReport("w", 1, 1, false)
	r.ok()
	r.check(false, "broken %d", 1)
	if r.Correct() || r.Failed != 1 || r.Attempted != 2 || !strings.Contains(r.Failures[0], "broken 1") {
		t.Fatalf("failure not recorded: %+v", r)
	}
	// An unmeasured end-to-end metric must make the line incorrect, not
	// read as a silent zero.
	clean := newReport("w", 1, 1, false)
	clean.ok()
	if line := clean.Line(); !strings.Contains(line, `"correct":false`) {
		t.Fatalf("line with no metrics reads correct: %s", line)
	}
}

func TestPercentiles(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.95); got != 95 {
		t.Errorf("p95 = %v, want 95", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if name, v := tail(s); name != "p90" || v != 90 {
		t.Errorf("tail of 100 samples = %s %v, want p90 90 (ten beyond it)", name, v)
	}
	if name, _ := tail(s[:50]); name != "" {
		t.Errorf("tail of 50 samples = %s, want none", name)
	}
}

func TestTracerSelfTime(t *testing.T) {
	var off *Tracer
	off.End(off.Start(0, 0, "l", "n")) // tracing off: no-ops, no panic
	tr := NewTracer()
	id := tr.NewTraceID()
	parent := tr.Start(id, 0, "bench", "rep")
	child := tr.Start(id, parent, "kb", "open")
	time.Sleep(2 * time.Millisecond)
	tr.End(child)
	time.Sleep(2 * time.Millisecond)
	tr.End(parent)
	tr.Do(tr.NewTraceID(), 0, "kb", "open", func() {}) // another trace's span of the same name stays out
	st := tr.Stats(id)
	if st["open"].Count != 1 {
		t.Fatalf("Stats counted %d spans named open in the trace, want 1", st["open"].Count)
	}
	if st["rep"].Self <= 0 || st["rep"].Self >= st["rep"].Total || st["open"].Self != st["open"].Total {
		t.Fatalf("self time wrong: %+v", st)
	}
	if st["rep"].Total-st["rep"].Self != st["open"].Total {
		t.Fatalf("parent self %v + child %v != parent total %v", st["rep"].Self, st["open"].Total, st["rep"].Total)
	}
}

// TestContract holds the code's metric and workload lists to
// BENCHMARK.json, the file the driver reads.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(c.Workloads), len(Workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, Workloads[i])
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []Spec) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
		}
		for i, m := range file {
			if m.Name != code[i].Name || m.Unit != code[i].Unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in code", kind, i, m.Name, m.Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, EndToEnd)
	same("per_layer", c.PerLayer, PerLayer)
}
