package obs

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the `le` semantics at exact bucket
// bounds: an observation equal to a bound lands in that bound's bucket
// (le is inclusive), one epsilon above lands in the next, and anything
// beyond the last bound lands in +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.0000001, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if want := []float64{1, 2, 4}; len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	// cumulative: le=1 → {0.5, 1}; le=2 → +{1.0000001, 2}; le=4 → +{4};
	// +Inf → everything.
	want := []int64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (cum %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+2+4+4.0000001+100; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// TestHistogramUnsortedBoundsAndNS checks constructor normalization and
// the nanosecond helper.
func TestHistogramUnsortedBoundsAndNS(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.001, 0.01}) // unsorted + duplicate
	h.ObserveNS(1_000_000)                          // 1ms = 0.001s, on the first bound
	bounds, cum := h.Buckets()
	if len(bounds) != 2 || bounds[0] != 0.001 || bounds[1] != 0.01 {
		t.Fatalf("bounds = %v, want [0.001 0.01]", bounds)
	}
	if cum[0] != 1 || cum[2] != 1 {
		t.Errorf("cumulative = %v, want the 1ms span in the 0.001 bucket", cum)
	}
}

// TestNilSafety: every mutator must be a no-op on nil receivers so
// uninstrumented pipelines need no branches at call sites.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	var g *Gauge
	g.Set(3)
	g.Dec()
	var h *Histogram
	h.Observe(1)
	h.ObserveNS(1)
	var tr *LoopTrace
	tr.End(StageInfer, tr.Start())
	var p *Pipeline
	p.StageEnd(StageApply, p.StageStart())
	p.AddBatch()
	p.AddQuestion()
	p.EngineCounters().Recomputes.Inc()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || len(tr.Totals()) != 0 {
		t.Fatal("nil receivers must read as zero")
	}
}

// TestObserveAllocationFree verifies the hot-path contract: counter
// increments and histogram observations allocate nothing.
func TestObserveAllocationFree(t *testing.T) {
	c := NewCounter()
	h := NewHistogram(DefBuckets)
	tr := NewLoopTrace(WallClock())
	tr.Attach(StageInfer, h)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.003)
		tr.End(StageInfer, tr.Start())
	}); n != 0 {
		t.Fatalf("observe path allocates %v times per run, want 0", n)
	}
}

// promLine matches one exposition sample or comment line.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9eE.+-]+(e[+-]?[0-9]+)?)$`)

// TestWritePrometheusFormat renders one of each family kind and checks
// every line against the exposition grammar plus the histogram
// invariants (cumulative buckets, +Inf equals _count).
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "operations").Add(3)
	r.Gauge("test_depth", "queue depth").Set(-2)
	r.GaugeFunc("test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	cv := r.CounterVec("test_requests_total", "requests by route", "route")
	cv.With("create").Add(2)
	cv.With(`we"ird\`).Inc()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE test_ops_total counter\ntest_ops_total 3\n",
		"test_depth -2\n",
		"test_uptime_seconds 1.5\n",
		`test_requests_total{route="create"} 2`,
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition output missing %q:\n%s", want, text)
		}
	}
}

// TestRegistrationPanics pins the fail-fast contract.
func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	for name, f := range map[string]func(){
		"duplicate":    func() { r.Counter("dup_total", "") },
		"bad name":     func() { r.Counter("1leading_digit", "") },
		"empty name":   func() { r.Counter("", "") },
		"bad label":    func() { r.CounterVec("v_total", "", "bad-label") },
		"kind overlap": func() { r.Histogram("dup_total", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines (run under -race in CI) and checks totals add up.
func TestConcurrentObserve(t *testing.T) {
	c := NewCounter()
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per || h.Sum() != 0.25*workers*per {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestLoopTraceTotals checks stage accounting through an injected fake
// clock — the exact shape the deterministic packages use.
func TestLoopTraceTotals(t *testing.T) {
	now := int64(0)
	tr := NewLoopTrace(func() int64 { return now })
	start := tr.Start()
	now = 250
	tr.End(StageInfer, start)
	start = tr.Start()
	now = 400
	tr.End(StageSelect, start)
	totals := tr.Totals()
	if totals["infer"] != 250 || totals["select"] != 150 {
		t.Errorf("totals = %v", totals)
	}
	if _, ok := totals["apply"]; ok {
		t.Error("apply never ran; Totals must omit it")
	}
}

// TestStageLabels pins the stage list the server turns into
// remp_loop_stage_seconds children: every stage has its own label, in
// pipeline order — Prepare's five sub-stages after it, ending with the
// session-end classifier — and catalog.txt lists the same labels.
func TestStageLabels(t *testing.T) {
	want := []string{"prepare", "block", "similarity", "graph", "fit", "shards", "infer", "select", "apply", "reestimate", "classify"}
	catalog, err := os.ReadFile("catalog.txt")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "# remp_loop_stage_seconds stages: "
	var listed []string
	for _, line := range strings.Split(string(catalog), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			listed = strings.Fields(rest)
		}
	}
	if !slices.Equal(listed, want) {
		t.Errorf("catalog.txt lists stages %q, want %q", listed, want)
	}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("Stages() = %v, want %d stages", stages, len(want))
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d is %q, want %q", i, s, want[i])
		}
	}
	if s := Stage(len(want)).String(); s != "unknown" {
		t.Errorf("out-of-range stage is %q", s)
	}
}
