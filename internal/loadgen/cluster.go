package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// readyLine is the prefix of the readiness line remp-worker prints to
// stdout; the remainder of the line is the bound address.
const readyLine = "remp-worker: listening on "

// ClusterConfig parameterizes a multi-process cluster drill: RunCluster
// spawns worker processes, stands up an in-process clustered server over
// them, runs the ordinary load run against it (same oracle, same
// byte-equality bar), and — optionally — SIGKILLs a worker mid-run to
// prove failover preserves the results.
type ClusterConfig struct {
	// Workers is the number of worker processes to spawn (default 3).
	Workers int
	// WorkerCmd builds the command for worker i. The process must print
	// remp-worker's readiness line ("remp-worker: listening on <addr>")
	// to stdout; RunCluster owns the command's stdout pipe, everything
	// else (stderr, env) is the builder's.
	WorkerCmd func(i int) *exec.Cmd
	// KillAfterAnswers, when > 0, SIGKILLs worker 0 once the run has
	// accepted that many answers — the crash-failover drill.
	KillAfterAnswers int64
	// Coordinator configures the clustered server's coordinator: Faults
	// injects frame faults (the -chaos drill), and zero timing fields
	// keep defaults. Drills that kill workers want a short liveness
	// timeout. RunCluster fills in Workers with the spawned addresses.
	Coordinator cluster.CoordinatorConfig
}

// ClusterReport is the load-run report plus the failover telemetry
// scraped from the clustered server's /metrics exposition.
type ClusterReport struct {
	Report
	// WorkerAddrs are the spawned workers' bound addresses, in spawn order.
	WorkerAddrs []string `json:"worker_addrs"`
	// KilledWorker reports whether the drill SIGKILLed worker 0.
	KilledWorker bool `json:"killed_worker"`
	// Reassignments, WorkerDowns and RPCRetries are the final values of
	// the corresponding remp_cluster_* counter families.
	Reassignments float64 `json:"reassignments"`
	WorkerDowns   float64 `json:"worker_downs"`
	RPCRetries    float64 `json:"rpc_retries"`
	// DeduceHits sums remp_deduce_hits_total over all namespaces: crowd
	// questions the server answered by deduction instead of a worker.
	DeduceHits float64 `json:"deduce_hits,omitempty"`
}

// workerProc is one spawned worker process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string
}

// startWorkerProc spawns one worker and waits for its readiness line.
func startWorkerProc(cc ClusterConfig, i int) (*workerProc, error) {
	cmd := cc.WorkerCmd(i)
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("loadgen: starting worker %d: %w", i, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, readyLine) {
				addrc <- strings.TrimSpace(strings.TrimPrefix(line, readyLine))
				break
			}
		}
		close(addrc)
		// Drain the rest so the worker never blocks on a full pipe.
		io.Copy(io.Discard, out)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("loadgen: worker %d exited before its readiness line", i)
		}
		return &workerProc{cmd: cmd, addr: addr}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("loadgen: worker %d never printed its readiness line", i)
	}
}

// kill SIGKILLs the worker process and reaps it.
func (w *workerProc) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.cmd.Wait()
}

// scrapeMetric extracts one un-labeled sample value from a Prometheus
// text exposition; missing families read as 0.
func scrapeMetric(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// scrapeMetricSum sums every sample of a labeled family; missing
// families read as 0.
func scrapeMetricSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+"{")
		if !ok {
			continue
		}
		if _, val, ok := strings.Cut(rest, "} "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// RunCluster executes one load run against a freshly spawned
// multi-process cluster. The server runs in process (so the race
// detector sees the coordinator) while the shard engines live in the
// spawned worker processes; the acceptance bar is the same byte-identity
// against the synchronous oracle that Run enforces, now across process
// boundaries and — with KillAfterAnswers — across a worker crash.
func RunCluster(cfg Config, cc ClusterConfig) (*ClusterReport, error) {
	if cc.Workers <= 0 {
		cc.Workers = 3
	}
	if cc.WorkerCmd == nil {
		return nil, fmt.Errorf("loadgen: ClusterConfig.WorkerCmd is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	workers := make([]*workerProc, 0, cc.Workers)
	defer func() {
		for _, w := range workers {
			w.kill()
		}
	}()
	addrs := make([]string, 0, cc.Workers)
	for i := 0; i < cc.Workers; i++ {
		w, err := startWorkerProc(cc, i)
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.addr)
		cfg.Logf("cluster: worker %d up at %s", i, w.addr)
	}

	cc.Coordinator.Workers = addrs
	srv, _, err := server.NewServer(server.Config{Cluster: cc.Coordinator})
	if err != nil {
		return nil, fmt.Errorf("loadgen: clustered server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	cfg.BaseURL = "http://" + ln.Addr().String()

	// Arm the mid-run kill on the answer-progress hook: the first
	// accepted answer at or past the threshold SIGKILLs worker 0, and the
	// run must still converge to the oracle on the survivors.
	killed := false
	if cc.KillAfterAnswers > 0 {
		prev := cfg.Progress
		killCh := make(chan struct{}, 1)
		cfg.Progress = func(answers int64) {
			if answers >= cc.KillAfterAnswers {
				select {
				case killCh <- struct{}{}:
					cfg.Logf("cluster: SIGKILLing worker 0 (%s) at %d answers", addrs[0], answers)
					workers[0].kill()
					killed = true
				default:
				}
			}
			if prev != nil {
				prev(answers)
			}
		}
	}

	report, err := Run(cfg)
	if err != nil {
		return nil, err
	}

	// Scrape the failover counters before tearing the server down.
	out := &ClusterReport{Report: *report, WorkerAddrs: addrs, KilledWorker: killed}
	if resp, merr := http.Get(cfg.BaseURL + "/metrics"); merr == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		out.Reassignments = scrapeMetric(text, "remp_cluster_shard_reassignments_total")
		out.WorkerDowns = scrapeMetric(text, "remp_cluster_worker_downs_total")
		out.RPCRetries = scrapeMetric(text, "remp_cluster_rpc_retries_total")
		out.DeduceHits = scrapeMetricSum(text, "remp_deduce_hits_total")
	} else {
		cfg.Logf("cluster: metrics scrape failed: %v", merr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); serr != nil {
		cfg.Logf("cluster: server shutdown: %v", serr)
	}
	return out, nil
}
