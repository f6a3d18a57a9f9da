// Command remp-e2e runs the repository benchmark: one workload (or all
// four) end to end, printing every metric by name with its unit and, as
// the last line of standard output, the result object BENCHMARK.json
// describes.
//
// Usage, from the repository root:
//
//	go run -C bench ./cmd/remp-e2e -workload serve-disk -seed 1 -seconds 20 -trace 0
//	go run -C bench ./cmd/remp-e2e -workload all -seed 1
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1 is
// the separate traced run that records spans from the harness's side,
// writes out/trace-<workload>.json and derives the per-layer metrics.
// -workload all runs every workload both ways. The exit status is
// non-zero when any operation or correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(bench.Workloads, ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed of every generated input (dataset seeds, label hash, client spec ranges)")
	secs := flag.Int("seconds", 20, "run length the fixed work is sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "remp-e2e: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}
	dir, err := benchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "remp-e2e:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM: kill and reap the children, remove the scratch
	// directories, exit 130. Every other exit path reaches the same
	// Cleanup through bench.Run's defer.
	cleanup := bench.NewCleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup.Close()
		os.Exit(130)
	}()

	names := []string{*workload}
	traces := []bool{*trace == 1}
	if *workload == "all" {
		names, traces = bench.Workloads, []bool{false, true}
	}
	failed := false
	for _, name := range names {
		for _, traced := range traces {
			rep, err := bench.Run(bench.Config{Workload: name, Seed: *seed, Seconds: *secs, Traced: traced, BenchDir: dir, Log: os.Stderr, Cleanup: cleanup})
			if err != nil {
				fmt.Fprintln(os.Stderr, "remp-e2e:", err)
				os.Exit(1)
			}
			line := rep.Line() // before Print: a missing metric is itself a failure to show
			rep.Print(os.Stdout)
			fmt.Println(line) // the last line of a single-workload run
			if !rep.Correct() {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// benchDir locates the benchmark module: the working directory when run
// through `go run -C bench`, or ./bench from the repository root.
func benchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro/bench") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the repro/bench module: run from the repository root or from bench/")
}
