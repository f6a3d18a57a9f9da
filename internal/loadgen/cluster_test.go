package loadgen

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestHelperProcessWorker is not a test: it is the remp-worker process
// the cluster drills below spawn (and SIGKILL). It mirrors
// cmd/remp-worker — listen, print the readiness line, serve the shards it
// is sent — inside the test binary so the drills need no pre-built
// artifacts.
func TestHelperProcessWorker(t *testing.T) {
	if os.Getenv("REMP_CLUSTER_WORKER") != "1" {
		t.Skip("helper process for the cluster drills")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("worker helper:", err)
		os.Exit(2)
	}
	fmt.Printf("remp-worker: listening on %s\n", ln.Addr())
	w := cluster.NewWorker(cluster.WorkerConfig{})
	if err := w.Serve(ln); err != nil {
		fmt.Println("worker helper:", err)
		os.Exit(2)
	}
}

// helperWorkerCmd builds the spawn command for one in-test worker.
func helperWorkerCmd(i int) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperProcessWorker$", "-test.v")
	cmd.Env = append(os.Environ(), "REMP_CLUSTER_WORKER=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// clusterTuning is the drill-speed coordinator timing: failover within a
// few hundred milliseconds instead of the production-default seconds.
var clusterTuning = cluster.CoordinatorConfig{
	HeartbeatInterval: 50 * time.Millisecond,
	LivenessTimeout:   400 * time.Millisecond,
	RPCTimeout:        10 * time.Second,
	OpTimeout:         2 * time.Minute,
	BackoffBase:       5 * time.Millisecond,
	BackoffMax:        100 * time.Millisecond,
}

// TestClusterSurvivesWorkerKill is the cluster acceptance drill: a
// 3-worker cluster drives concurrent sessions whose shard engines live
// in separate worker processes; one worker is SIGKILLed mid-run; every
// session must still finish byte-identical to the synchronous in-process
// oracle, with the failover visible in the reassignment metrics. The
// drill runs with answer deduction on, so crash failover is exercised
// together with the deduction tier: the oracle is a Deduce-on
// synchronous run and byte-identity covers Result.Deduced too.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real worker processes")
	}
	rep, err := RunCluster(
		Config{
			Sessions:    3,
			Dataset:     "books",
			DatasetSeed: 3,
			Options:     server.OptionsDTO{Mu: 5, Seed: 3, Shards: 6, Deduce: true},
			WorkerError: 0.05,
			Reorder:     0.5,
			Seed:        3,
			Deadline:    4 * time.Minute,
			Logf:        t.Logf,
		},
		ClusterConfig{
			Workers:   3,
			WorkerCmd: helperWorkerCmd,
			// The shared answer cache caps distinct answers near the
			// oracle's question count (~20 on books), so kill early to land
			// mid-run.
			KillAfterAnswers: 5,
			Coordinator:      clusterTuning,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sessions {
		t.Fatalf("%d/%d sessions completed: %+v", rep.Completed, rep.Sessions, rep.Outcomes)
	}
	if !rep.ResultsMatch {
		t.Fatalf("a session diverged from the synchronous oracle after the worker kill: %+v", rep.Outcomes)
	}
	if !rep.KilledWorker {
		t.Fatal("the drill never reached the kill threshold; failover was not exercised")
	}
	if rep.Reassignments == 0 {
		t.Fatal("no shard reassignments recorded; the killed worker owned nothing mid-run")
	}
	if rep.WorkerDowns == 0 {
		t.Fatal("the killed worker was never marked down")
	}
	if rep.Oracle.Deduced == 0 {
		t.Fatal("the Deduce-on oracle deduced nothing; the drill no longer exercises deduction")
	}
	t.Logf("survived the kill: %d answers, %d deduced by the oracle, %v reassignments, %v worker downs, %v rpc retries",
		rep.Answers, rep.Oracle.Deduced, rep.Reassignments, rep.WorkerDowns, rep.RPCRetries)
}

// TestClusterChaosDrill runs the cluster under frame-level fault
// injection — dropped and duplicated requests — with no worker kill:
// retries and dedup alone must keep every session oracle-identical.
func TestClusterChaosDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	tuning := clusterTuning
	// Dropped frames are only discovered by the RPC timeout; keep it
	// short so the drill doesn't crawl.
	tuning.RPCTimeout = 2 * time.Second
	tuning.Faults = &cluster.Faults{DropEveryN: 10, DuplicateEveryN: 3}
	rep, err := RunCluster(
		Config{
			Sessions:    2,
			Dataset:     "books",
			DatasetSeed: 5,
			Options:     server.OptionsDTO{Mu: 5, Seed: 5, Shards: 4},
			Seed:        5,
			Deadline:    4 * time.Minute,
			Logf:        t.Logf,
		},
		ClusterConfig{
			Workers:     2,
			WorkerCmd:   helperWorkerCmd,
			Coordinator: tuning,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sessions || !rep.ResultsMatch {
		t.Fatalf("chaos run diverged: completed %d/%d, match=%v: %+v",
			rep.Completed, rep.Sessions, rep.ResultsMatch, rep.Outcomes)
	}
	if rep.RPCRetries == 0 {
		t.Fatal("no RPC retries recorded; the drop fault never fired")
	}
}
