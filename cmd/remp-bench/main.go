// Command remp-bench regenerates the paper's evaluation artifacts: every
// table and figure of §VIII, on the synthetic dataset suite, plus the
// reproduction's own shard-scalability experiment.
//
// Usage:
//
//	remp-bench -experiment all          # everything, paper order
//	remp-bench -experiment table3       # one artifact
//	remp-bench -list                    # available experiments
//	remp-bench -experiment table6 -seed 7
//	remp-bench -experiment shards -json shards.json
//	remp-bench -experiment shards -cpuprofile cpu.pprof -memprofile mem.pprof
//	remp-bench -experiment shards -trace trace.out
//
// The shards, prepare and deduction experiments carry a verdict and exit 1
// when it fails: a sharded run that diverged from the monolithic one, an
// indexed pre-pipeline that diverged from the naive one or (when the naive
// cross-check ran) is under 5× faster, a deduction run that changed a
// resolved pair or reached the 10 % savings floor on fewer than two
// datasets.
//
// The -cpuprofile / -memprofile flags write pprof profiles covering the
// experiment run, so a hot-path regression can be diagnosed with
// `go tool pprof` from the file alone. -trace captures a runtime
// execution trace of the same window for `go tool trace` — scheduling,
// GC pauses and the shard fan-out are all visible there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := bench(); err != nil {
		fmt.Fprintf(os.Stderr, "remp-bench: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// bench runs the selected experiment and returns its verdict, nil for the
// experiments that carry none.
func bench() error {
	experiment := flag.String("experiment", "all", "experiment id (see -list) or 'all'")
	seed := flag.Int64("seed", experiments.DefaultSeed, "random seed for datasets, workers and samplers")
	list := flag.Bool("list", false, "list available experiments and exit")
	jsonPath := flag.String("json", "", "write the experiment's machine-readable report to this file (shards, prepare and deduction experiments only)")
	prepN := flag.Int("n", 1_000_000, "prepare experiment: entities per KB of the scale dataset")
	prepNaive := flag.Bool("naive", false, "prepare experiment: force the naive cross-check even above its feasibility limit (default: auto by -n)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after the experiment run to this file")
	tracePath := flag.String("trace", "", "write a runtime execution trace of the experiment run to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.Order() {
			fmt.Printf("%-8s  %s\n", id, experiments.Describe(id))
		}
		return nil
	}

	// Validate everything before the timer starts: an unknown experiment
	// (or a -json flag the experiment cannot honor) must fail fast with a
	// non-zero exit and the valid IDs, not after minutes of benchmarking.
	var run func() error
	save := func(report any) {
		if *jsonPath != "" {
			writeJSON(*jsonPath, report)
		}
	}
	switch *experiment {
	case "all":
		if *jsonPath != "" {
			fatalf("remp-bench: -json is only supported with -experiment shards, prepare or deduction")
		}
		run = func() error { experiments.All(os.Stdout, *seed); return nil }
	case "shards":
		run = func() error {
			report := experiments.ShardScalability(os.Stdout, *seed)
			save(report)
			return report.Check()
		}
	case "deduction":
		run = func() error {
			report := experiments.Deduction(os.Stdout, *seed)
			save(report)
			return report.Check()
		}
	case "prepare":
		if *prepN <= 0 {
			fatalf("remp-bench: -n must be positive")
		}
		n, withNaive := *prepN, *prepNaive
		run = func() error {
			report := experiments.PreparePipeline(os.Stdout, *seed, n,
				withNaive || n <= experiments.NaiveFeasibleLimit)
			save(report)
			return report.Check()
		}
	default:
		runner, ok := experiments.Registry()[*experiment]
		if !ok {
			fatalf("remp-bench: unknown experiment %q; available: %v", *experiment, experiments.Names())
		}
		if *jsonPath != "" {
			fatalf("remp-bench: -json is only supported with -experiment shards, prepare or deduction")
		}
		run = func() error { runner(os.Stdout, *seed); return nil }
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("remp-bench: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("remp-bench: starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("remp-bench: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fatalf("remp-bench: starting execution trace: %v", err)
		}
		defer trace.Stop()
	}

	start := time.Now()
	verdict := run()
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("remp-bench: %v", err)
		}
		defer f.Close()
		runtime.GC() // settle live objects so the heap profile reflects retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("remp-bench: writing heap profile: %v", err)
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
	return verdict
}

func writeJSON(path string, report any) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("remp-bench: encoding report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("remp-bench: writing %s: %v", path, err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
