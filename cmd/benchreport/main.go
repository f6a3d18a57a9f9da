// Command benchreport turns raw benchmark output into the repository's
// machine-readable benchmark trajectory and gates CI on regressions.
//
// It parses `go test -bench` text output — ns/op plus the B/op and
// allocs/op columns b.ReportAllocs emits — merges the shard-scalability
// report written by `remp-bench -experiment shards -json`, annotates the
// built-in dataset sizes, and writes one BENCH_remp.json. When a baseline
// file is given it compares every metric benchmark by benchmark and exits
// non-zero if any benchmark regressed by more than the allowed fraction
// — after normalizing by the per-metric median ratio across all shared
// benchmarks, so a uniformly slower or faster host (CI runners vs the
// machine that recorded the baseline) does not trip the time gate, and a
// Go-version-wide allocator shift does not trip the allocation gate; only
// benchmarks that moved relative to the rest of the suite do.
//
// Usage:
//
//	go test -bench . -benchtime 1x -run '^$' ./... | tee bench.txt
//	remp-bench -experiment shards -json shards.json
//	remp-bench -experiment prepare -n 20000 -json prepare.json
//	benchreport -bench bench.txt -shards shards.json -prepare prepare.json \
//	    -baseline BENCH_baseline.json -out BENCH_remp.json
//
// The prepare report carries its own gate: the indexed pre-pipeline must
// be byte-identical to the naive path, and — when the report ran the
// naive cross-check — at least -min-prepare-speedup times faster.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/loadgen"
)

// Report is the BENCH_remp.json schema.
type Report struct {
	Version     int                      `json:"version"`
	Go          string                   `json:"go"`
	Benchmarks  []Benchmark              `json:"benchmarks"`
	Scalability *experiments.ShardReport `json:"scalability,omitempty"`
	// Prepare is the pre-pipeline report (indexed blocking + batched
	// similarity vs the naive path) from remp-bench -experiment prepare.
	Prepare *experiments.PrepareReport `json:"prepare,omitempty"`
	// LoadTest is the remp-loadgen report (throughput against a live
	// server plus the oracle-equivalence verdict), when one was run.
	LoadTest *loadgen.Report `json:"load_test,omitempty"`
	// Deduction is the answer-deduction report (crowd questions saved per
	// dataset) from remp-bench -experiment deduction.
	Deduction *experiments.DeductionReport `json:"deduction,omitempty"`
	Datasets  []DatasetSize                `json:"datasets"`
}

// Benchmark is one `go test -bench` result line. BytesPerOp/AllocsPerOp
// are -1 when the line carried no allocation columns (a benchmark without
// b.ReportAllocs), so a true 0 allocs/op stays distinguishable.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// DatasetSize records the synthetic benchmark suite's scale alongside the
// timings that were measured on it.
type DatasetSize struct {
	Name        string `json:"name"`
	Entities1   int    `json:"entities1"`
	Entities2   int    `json:"entities2"`
	GoldMatches int    `json:"gold_matches"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)
	bytesCol   = regexp.MustCompile(`\s([\d.]+) B/op`)
	allocsCol  = regexp.MustCompile(`\s([\d.]+) allocs/op`)
	metricCols = []struct {
		key string
		get func(Benchmark) float64
	}{
		{"ns/op", func(b Benchmark) float64 { return b.NsPerOp }},
		{"B/op", func(b Benchmark) float64 { return b.BytesPerOp }},
		{"allocs/op", func(b Benchmark) float64 { return b.AllocsPerOp }},
	}
)

func main() {
	benchPath := flag.String("bench", "", "go test -bench output to parse (optional)")
	shardsPath := flag.String("shards", "", "shard-scalability JSON from remp-bench -experiment shards -json")
	preparePath := flag.String("prepare", "", "pre-pipeline JSON from remp-bench -experiment prepare -json")
	minSpeedup := flag.Float64("min-prepare-speedup", 5.0, "minimum indexed-vs-naive pre-pipeline speedup (applies only when the prepare report ran the naive cross-check)")
	loadgenPath := flag.String("loadgen", "", "load-test JSON from remp-loadgen -json")
	deducePath := flag.String("deduce", "", "deduction JSON from remp-bench -experiment deduction -json")
	minDeduceSavings := flag.Float64("min-deduce-savings", 0.10, "minimum crowd-questions-saved ratio deduction must reach on at least two datasets (applies only when a -deduce report is given)")
	baselinePath := flag.String("baseline", "", "baseline BENCH json to gate against")
	outPath := flag.String("out", "BENCH_remp.json", "output path")
	maxRegression := flag.Float64("max-regression", 0.25, "maximum allowed relative slowdown vs baseline")
	maxP99Ratio := flag.Float64("max-p99-ratio", 5.0, "maximum allowed loadgen p99 latency ratio vs baseline (per operation; applies only when both reports carry latency data)")
	flag.Parse()

	// Version 2 added the bytes_per_op / allocs_per_op columns.
	report := &Report{Version: 2, Go: runtime.Version()}

	// Without -bench the report carries (and the gates check) the JSON
	// sections alone.
	var raw []byte
	if *benchPath != "" {
		var err error
		if raw, err = os.ReadFile(*benchPath); err != nil {
			fatalf("benchreport: %v", err)
		}
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		if bm := bytesCol.FindStringSubmatch(line); bm != nil {
			if v, err := strconv.ParseFloat(bm[1], 64); err == nil {
				b.BytesPerOp = v
			}
		}
		if am := allocsCol.FindStringSubmatch(line); am != nil {
			if v, err := strconv.ParseFloat(am[1], 64); err == nil {
				b.AllocsPerOp = v
			}
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if *benchPath != "" && len(report.Benchmarks) == 0 {
		fatalf("benchreport: no benchmark lines found in %s", *benchPath)
	}
	sort.Slice(report.Benchmarks, func(i, j int) bool { return report.Benchmarks[i].Name < report.Benchmarks[j].Name })

	if *shardsPath != "" {
		data, err := os.ReadFile(*shardsPath)
		if err != nil {
			fatalf("benchreport: %v", err)
		}
		var shard experiments.ShardReport
		if err := json.Unmarshal(data, &shard); err != nil {
			fatalf("benchreport: parsing %s: %v", *shardsPath, err)
		}
		report.Scalability = &shard
	}

	if *preparePath != "" {
		data, err := os.ReadFile(*preparePath)
		if err != nil {
			fatalf("benchreport: %v", err)
		}
		var prep experiments.PrepareReport
		if err := json.Unmarshal(data, &prep); err != nil {
			fatalf("benchreport: parsing %s: %v", *preparePath, err)
		}
		report.Prepare = &prep
	}

	if *loadgenPath != "" {
		data, err := os.ReadFile(*loadgenPath)
		if err != nil {
			fatalf("benchreport: %v", err)
		}
		var load loadgen.Report
		if err := json.Unmarshal(data, &load); err != nil {
			fatalf("benchreport: parsing %s: %v", *loadgenPath, err)
		}
		report.LoadTest = &load
	}

	if *deducePath != "" {
		data, err := os.ReadFile(*deducePath)
		if err != nil {
			fatalf("benchreport: %v", err)
		}
		var ded experiments.DeductionReport
		if err := json.Unmarshal(data, &ded); err != nil {
			fatalf("benchreport: parsing %s: %v", *deducePath, err)
		}
		report.Deduction = &ded
	}

	for _, ds := range datasets.All(experiments.DefaultSeed) {
		report.Datasets = append(report.Datasets, DatasetSize{
			Name:        ds.Name,
			Entities1:   ds.K1.NumEntities(),
			Entities2:   ds.K2.NumEntities(),
			GoldMatches: ds.Gold.Size(),
		})
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("benchreport: %v", err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		fatalf("benchreport: %v", err)
	}
	fmt.Printf("benchreport: wrote %s (%d benchmarks)\n", *outPath, len(report.Benchmarks))

	failed := false
	if lt := report.LoadTest; lt != nil {
		if lt.Completed != lt.Sessions || !lt.ResultsMatch {
			fmt.Printf("benchreport: FAIL load test: %d/%d sessions completed, oracle match %v\n",
				lt.Completed, lt.Sessions, lt.ResultsMatch)
			failed = true
		} else {
			fmt.Printf("benchreport: load test green: %d sessions, %.0f answers/s, %d retries\n",
				lt.Sessions, lt.AnswersPerSec, lt.Retries)
		}
		for op, ls := range lt.Latency {
			fmt.Printf("benchreport: load test %-7s p50 %.2fms p95 %.2fms p99 %.2fms (n=%d)\n",
				op, ls.P50Ms, ls.P95Ms, ls.P99Ms, ls.Count)
		}
	}
	if prep := report.Prepare; prep != nil {
		if !prep.Equivalent {
			fmt.Printf("benchreport: FAIL pre-pipeline (%s) diverged from the naive path\n", prep.Dataset)
			failed = true
		}
		if prep.NaiveNS > 0 && prep.Speedup < *minSpeedup {
			fmt.Printf("benchreport: FAIL pre-pipeline speedup %.2fx below the %.1fx floor\n", prep.Speedup, *minSpeedup)
			failed = true
		}
		if prep.NaiveNS > 0 {
			fmt.Printf("benchreport: pre-pipeline green: %s, %.2fx speedup, byte-identical %v\n",
				prep.Dataset, prep.Speedup, prep.Equivalent)
		} else {
			fmt.Printf("benchreport: pre-pipeline green: %s, indexed %.2fs (naive cross-check skipped at this scale)\n",
				prep.Dataset, float64(prep.IndexedNS)/1e9)
		}
	}
	if report.Scalability != nil {
		for _, pt := range report.Scalability.Points {
			if !pt.Equivalent {
				fmt.Printf("benchreport: FAIL sharded run at %d shards diverged from the monolithic result\n", pt.Shards)
				failed = true
			}
		}
	}
	if gateDeduction(report.Deduction, *minDeduceSavings) {
		failed = true
	}
	if *baselinePath != "" {
		base := readBaseline(*baselinePath)
		if gate(report, base, *baselinePath, *maxRegression) {
			failed = true
		}
		if gateLatency(report, base, *maxP99Ratio) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// gate compares the current report to the baseline — ns/op, B/op and
// allocs/op independently, each normalized by its own median ratio across
// the shared benchmarks — and reports regressions; it returns true when
// the gate should fail the build. Benchmarks or baselines without a
// metric (value ≤ 0, e.g. a pre-allocation-columns baseline) are skipped
// for that metric only.
func readBaseline(path string) *Report {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("benchreport: %v", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("benchreport: parsing %s: %v", path, err)
	}
	return &base
}

func gate(report, base *Report, baselinePath string, maxRegression float64) bool {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	failed := false
	for _, metric := range metricCols {
		type cmp struct {
			name  string
			ratio float64
		}
		var shared []cmp
		metricFailed := false
		for _, b := range report.Benchmarks {
			bb, ok := baseBy[b.Name]
			if !ok {
				continue
			}
			cur, old := metric.get(b), metric.get(bb)
			if cur < 0 || old < 0 {
				continue // metric absent on one side (pre-v2 baseline)
			}
			if old == 0 {
				// A zero baseline has no ratio. 0 → 0 is fine; 0 → anything
				// is exactly the regression class this gate exists for (a
				// zero-alloc hot path growing an allocation), so it fails
				// outright instead of slipping past the ratio math.
				if cur > 0 {
					fmt.Printf("benchreport: %-10s %-55s was 0, now %v REGRESSION\n", metric.key, b.Name, cur)
					metricFailed = true
				}
				continue
			}
			shared = append(shared, cmp{name: b.Name, ratio: cur / old})
		}
		if len(shared) == 0 && !metricFailed {
			fmt.Printf("benchreport: no shared %s values with the baseline; %s gate skipped\n", metric.key, metric.key)
			continue
		}
		// The median ratio calibrates away whole-suite shifts: host speed
		// for ns/op, runtime/compiler allocation changes for B/op and
		// allocs/op. Only benchmarks that moved against the suite fail.
		ratios := make([]float64, len(shared))
		for i, c := range shared {
			ratios[i] = c.ratio
		}
		median := 1.0
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			median = ratios[len(ratios)/2]
			if median <= 0 {
				median = 1
			}
		}
		for _, c := range shared {
			normalized := c.ratio / median
			status := "ok"
			if normalized > 1+maxRegression {
				status = "REGRESSION"
				metricFailed = true
			}
			fmt.Printf("benchreport: %-10s %-55s ratio %.3f (normalized %.3f) %s\n", metric.key, c.name, c.ratio, normalized, status)
		}
		if metricFailed {
			fmt.Printf("benchreport: FAIL %s regressed more than %.0f%% vs %s (median-normalized)\n", metric.key, 100*maxRegression, baselinePath)
			failed = true
		} else {
			fmt.Printf("benchreport: %s gate green vs %s (%d benchmarks, median ratio %.3f)\n", metric.key, baselinePath, len(shared), median)
		}
	}
	return failed
}

// gateDeduction scores the answer-deduction report: every point must be
// byte-equivalent to its Deduce-off reference (deduction may never
// change a resolved pair), and the savings floor must hold on at least
// two datasets — measured by each dataset's minimum savings across
// shard counts, with a small epsilon so float rounding cannot flip the
// verdict. It returns true when the gate should fail the build.
func gateDeduction(ded *experiments.DeductionReport, minSavings float64) bool {
	if ded == nil {
		return false
	}
	const epsilon = 1e-9
	failed := false
	seen := make(map[string]bool)
	var names []string
	for _, pt := range ded.Points {
		if !pt.Equivalent {
			fmt.Printf("benchreport: FAIL deduction on %s @ %d shard(s) diverged from the Deduce-off reference\n", pt.Dataset, pt.Shards)
			failed = true
		}
		if !seen[pt.Dataset] {
			seen[pt.Dataset] = true
			names = append(names, pt.Dataset)
		}
	}
	atFloor := 0
	for _, name := range names {
		min, ok := ded.MinSavings(name)
		if !ok {
			continue
		}
		status := "below floor"
		if min >= minSavings-epsilon {
			atFloor++
			status = "ok"
		}
		fmt.Printf("benchreport: deduction  %-55s min savings %5.1f%% %s\n", name, 100*min, status)
	}
	if atFloor < 2 {
		fmt.Printf("benchreport: FAIL deduction reached the %.0f%% savings floor on %d dataset(s); at least 2 required\n", 100*minSavings, atFloor)
		failed = true
	} else if !failed {
		fmt.Printf("benchreport: deduction gate green: %d/%d datasets at or above the %.0f%% floor, all points equivalent\n", atFloor, len(names), 100*minSavings)
	}
	return failed
}

// gateLatency compares loadgen client-side p99 latency per operation
// against the baseline. It engages only when both the current report and
// the baseline carry latency data (so pre-latency baselines never trip
// it) and uses a generous ratio rather than a percentage: client p99 on
// a shared CI runner is noisy, and this gate exists to catch order-of-
// magnitude collapses (a lock convoy, an accidental fsync per request),
// not small drifts — those are the benchmark gate's job.
func gateLatency(report, base *Report, maxP99Ratio float64) bool {
	if report.LoadTest == nil || base.LoadTest == nil ||
		len(report.LoadTest.Latency) == 0 || len(base.LoadTest.Latency) == 0 {
		return false
	}
	failed := false
	for op, cur := range report.LoadTest.Latency {
		old, ok := base.LoadTest.Latency[op]
		if !ok || old.P99Ms <= 0 || cur.Count == 0 {
			continue
		}
		ratio := cur.P99Ms / old.P99Ms
		status := "ok"
		if ratio > maxP99Ratio {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("benchreport: p99        %-55s %.2fms vs %.2fms (ratio %.2f) %s\n", op, cur.P99Ms, old.P99Ms, ratio, status)
	}
	if failed {
		fmt.Printf("benchreport: FAIL loadgen p99 latency regressed more than %.1fx vs baseline\n", maxP99Ratio)
	}
	return failed
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
