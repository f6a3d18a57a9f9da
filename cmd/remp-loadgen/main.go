// Command remp-loadgen drives a live remp-server with N concurrent
// resolution sessions and verifies every session's final result
// byte-matches the synchronous remp.Resolve oracle computed in process.
// Worker labels are a deterministic function of each entity pair, so
// the oracle comparison is exact no matter how the crowd's latency,
// reordering, worker errors — or a server kill + restart mid-run —
// interleave with delivery.
//
// Usage:
//
//	remp-server -addr :8080 -store disk -data-dir ./remp-data &
//	remp-loadgen -addr http://127.0.0.1:8080 -sessions 50 -dataset books \
//	    -worker-error 0.05 -reorder 0.5 -max-latency 5ms -json load.json
//
// The process exits 0 only when every session completed and matched
// the oracle; -json writes the run summary (throughput, per-operation
// latency percentiles).
//
// With -cluster N the harness spawns its own cluster instead of driving
// an external server: N remp-worker processes (-worker-bin), an
// in-process clustered server over them, and optionally a SIGKILL of
// worker 0 mid-run (-kill-worker-after) or frame-level fault injection
// (-chaos). The oracle bar is unchanged — byte identity across process
// boundaries, crashes and chaos:
//
//	remp-loadgen -cluster 3 -worker-bin ./remp-worker -sessions 4 \
//	    -shards 6 -kill-worker-after 5 -chaos dup=10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remp-loadgen: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the remp-server to drive")
	sessions := flag.Int("sessions", 10, "number of concurrent sessions")
	dataset := flag.String("dataset", "books", "built-in dataset resolved by every session")
	seed := flag.Int64("seed", 1, "dataset generator seed and label-determinism seed")
	mu := flag.Int("mu", 0, "questions per human-machine loop (0 = pipeline default)")
	shards := flag.Int("shards", 0, "shard count per session (0 = auto)")
	deduce := flag.Bool("deduce", false, "enable answer deduction in every session (the oracle runs Deduce-on too)")
	workers := flag.Int("workers", 3, "simulated workers per question")
	workerError := flag.Float64("worker-error", 0, "probability a worker's label is flipped (deterministic per pair and worker)")
	reorder := flag.Float64("reorder", 0.5, "probability a batch is answered in random order")
	minLatency := flag.Duration("min-latency", 0, "minimum simulated think time per answer")
	maxLatency := flag.Duration("max-latency", 0, "maximum simulated think time per answer (0 = none)")
	retryTimeout := flag.Duration("retry-timeout", 30*time.Second, "how long to retry an unreachable server (spans a kill + restart)")
	deadline := flag.Duration("deadline", 10*time.Minute, "overall run deadline")
	jsonOut := flag.String("json", "", "write the JSON report to this file")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	clusterN := flag.Int("cluster", 0, "spawn this many remp-worker processes and an in-process clustered server instead of driving -addr")
	workerBin := flag.String("worker-bin", "remp-worker", "remp-worker binary to spawn (with -cluster)")
	killAfter := flag.Int64("kill-worker-after", 0, "SIGKILL worker 0 after this many accepted answers (with -cluster; 0 = never)")
	chaos := flag.String("chaos", "", "fault injection for cluster RPCs, e.g. drop=20,dup=10,delay=5:50ms (with -cluster)")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg := loadgen.Config{
		BaseURL:      *addr,
		Sessions:     *sessions,
		Dataset:      *dataset,
		DatasetSeed:  *seed,
		Options:      server.OptionsDTO{Mu: *mu, Seed: *seed, Shards: *shards, Deduce: *deduce},
		Workers:      *workers,
		WorkerError:  *workerError,
		Seed:         *seed,
		MinLatency:   *minLatency,
		MaxLatency:   *maxLatency,
		Reorder:      *reorder,
		RetryTimeout: *retryTimeout,
		Deadline:     *deadline,
		Logf:         logf,
	}

	var report *loadgen.Report
	var clusterRep *loadgen.ClusterReport
	var err error
	if *clusterN > 0 {
		cc := loadgen.ClusterConfig{
			Workers: *clusterN,
			WorkerCmd: func(i int) *exec.Cmd {
				return exec.Command(*workerBin, "-addr", "127.0.0.1:0")
			},
			KillAfterAnswers: *killAfter,
		}
		if *chaos != "" {
			if cc.Coordinator.Faults, err = cluster.ParseFaults(*chaos); err != nil {
				log.Fatal(err)
			}
		}
		clusterRep, err = loadgen.RunCluster(cfg, cc)
		if clusterRep != nil {
			report = &clusterRep.Report
		}
	} else {
		report, err = loadgen.Run(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if clusterRep != nil {
		fmt.Printf("loadgen: cluster of %d workers, killed=%v, %v reassignments, %v worker downs, %v rpc retries\n",
			len(clusterRep.WorkerAddrs), clusterRep.KilledWorker,
			clusterRep.Reassignments, clusterRep.WorkerDowns, clusterRep.RPCRetries)
	}

	if *jsonOut != "" {
		var doc any = report
		if clusterRep != nil {
			doc = clusterRep
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loadgen: %d/%d sessions completed, %d answers (%.0f/s), %d rejected, %d retries, oracle match: %v\n",
		report.Completed, report.Sessions, report.Answers, report.AnswersPerSec,
		report.Rejected, report.Retries, report.ResultsMatch)
	for _, op := range []string{"create", "batch", "answers", "result"} {
		if ls, ok := report.Latency[op]; ok {
			fmt.Printf("loadgen: %-7s p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms  (n=%d)\n",
				op, ls.P50Ms, ls.P95Ms, ls.P99Ms, ls.MaxMs, ls.Count)
		}
	}
	for _, o := range report.Outcomes {
		if o.Error != "" {
			log.Printf("session %s failed: %s", o.ID, o.Error)
		} else if !o.Match {
			log.Printf("session %s diverged from the oracle", o.ID)
		}
	}
	if report.Completed != report.Sessions || !report.ResultsMatch {
		os.Exit(1)
	}
}
