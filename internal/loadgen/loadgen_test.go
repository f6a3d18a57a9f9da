package loadgen

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/session"
)

// TestLoadgenOracleEquivalence drives concurrent sessions against an
// in-process server (no restarts) and requires every session's result
// to byte-match the synchronous oracle, across noisy-crowd configs.
func TestLoadgenOracleEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		sessions    int
		workerError float64
		reorder     float64
	}{
		{"clean-crowd", 4, 0, 0},
		{"noisy-reordered", 6, 0.08, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			report, err := Run(Config{
				BaseURL:     ts.URL,
				Sessions:    tc.sessions,
				Dataset:     "books",
				DatasetSeed: 7,
				Options:     server.OptionsDTO{Mu: 5, Seed: 7},
				WorkerError: tc.workerError,
				Reorder:     tc.reorder,
				Seed:        7,
				Deadline:    2 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Completed != tc.sessions {
				t.Fatalf("%d/%d sessions completed: %+v", report.Completed, tc.sessions, report.Outcomes)
			}
			if !report.ResultsMatch {
				t.Fatalf("results diverged from the oracle: %+v", report.Outcomes)
			}
			if report.Oracle.Matches == 0 {
				t.Fatal("oracle resolved nothing; the equivalence is vacuous")
			}
			if report.Answers == 0 {
				t.Fatal("no answers were posted")
			}
			// Every session creates, answers and fetches a result, so those
			// operations must carry latency percentiles. A session polls its
			// batch only while siblings hold every question it has open —
			// whether that happens is up to the scheduler — so "batch" may
			// have no samples; when it has, they must be consistent too.
			for _, op := range []string{"create", "batch", "answers", "result"} {
				ls, ok := report.Latency[op]
				if !ok || ls.Count == 0 {
					if op != "batch" {
						t.Errorf("no latency samples for %q: %+v", op, report.Latency)
					}
				} else if ls.P50Ms <= 0 || ls.P99Ms < ls.P50Ms || ls.MaxMs < ls.P99Ms {
					t.Errorf("inconsistent %q percentiles: %+v", op, ls)
				}
			}
		})
	}
}

// TestLoadgenRunsDoNotShareSessions: each run creates sessions of its
// own, even when an earlier run against the same server used the same
// Seed, and so the same client_ref scheme. The second run changes only
// the dataset seed, so the namespace's answer cache cannot answer it and
// it must post answers; the third repeats the first run's Config, which
// the cache may answer whole, but its sessions must still be new.
func TestLoadgenRunsDoNotShareSessions(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	cfg := Config{
		BaseURL:     ts.URL,
		Sessions:    2,
		Dataset:     "books",
		DatasetSeed: 7,
		Options:     server.OptionsDTO{Mu: 5, Seed: 7},
		Seed:        7,
		Deadline:    2 * time.Minute,
	}
	other := cfg
	other.DatasetSeed = 8
	seen := map[string]int{}
	for run, c := range []Config{cfg, other, cfg} {
		report, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if report.Completed != c.Sessions || !report.ResultsMatch {
			t.Fatalf("run %d: %d/%d sessions completed, results match %v: %+v", run, report.Completed, c.Sessions, report.ResultsMatch, report.Outcomes)
		}
		if run < 2 && report.Answers == 0 {
			t.Errorf("run %d posted no answers: it got sessions it did not create", run)
		}
		for _, o := range report.Outcomes {
			if prev, dup := seen[o.ID]; dup {
				t.Errorf("runs %d and %d both drove session %s", prev, run, o.ID)
			}
			seen[o.ID] = run
		}
	}
}

// TestHelperProcessServer is not a test: it is the remp-server process
// the kill/restart drill below spawns and SIGKILLs. It serves with a
// disk store until killed.
func TestHelperProcessServer(t *testing.T) {
	if os.Getenv("REMP_LOADGEN_HELPER") != "1" {
		t.Skip("helper process for TestLoadgenSurvivesServerKill")
	}
	store, err := session.NewDiskStore(os.Getenv("REMP_LOADGEN_DIR"))
	if err != nil {
		fmt.Println("helper:", err)
		os.Exit(2)
	}
	srv, _, err := server.NewServer(server.Config{Store: store})
	if err != nil {
		fmt.Println("helper recovery:", err)
	}
	if err := http.ListenAndServe(os.Getenv("REMP_LOADGEN_ADDR"), srv.Handler()); err != nil {
		fmt.Println("helper:", err)
		os.Exit(2)
	}
}

// startHelperServer spawns the helper remp-server process and waits for
// it to serve /healthz.
func startHelperServer(t *testing.T, addr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperProcessServer$", "-test.v")
	cmd.Env = append(os.Environ(),
		"REMP_LOADGEN_HELPER=1",
		"REMP_LOADGEN_ADDR="+addr,
		"REMP_LOADGEN_DIR="+dir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("helper server at %s never became healthy: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestLoadgenSurvivesServerKill is the acceptance drill: concurrent
// sessions against a disk-store server that is SIGKILLed mid-run and
// restarted over the same data directory. Every session must complete
// with a result byte-identical to the synchronous oracle.
func TestLoadgenSurvivesServerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	sessions := 50
	if os.Getenv("CI") != "" {
		// Fifty race-instrumented pipelines are heavy for shared runners;
		// the drill is identical at smaller fan-out.
		sessions = 16
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := filepath.Join(t.TempDir(), "store")

	srv := startHelperServer(t, addr, dir)
	killed := make(chan struct{})
	var killOnce atomic.Bool

	report := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := Run(Config{
			BaseURL:     "http://" + addr,
			Sessions:    sessions,
			Dataset:     "books",
			DatasetSeed: 3,
			Options:     server.OptionsDTO{Mu: 5, Seed: 3},
			WorkerError: 0.05,
			Reorder:     0.7,
			Seed:        3,
			MinLatency:  5 * time.Millisecond,
			MaxLatency:  25 * time.Millisecond,
			// The outage budget must cover the SIGKILL + restart below.
			RetryTimeout: time.Minute,
			Deadline:     5 * time.Minute,
			Progress: func(answers int64) {
				// Hard-kill the server once the run is demonstrably mid-flight.
				// The shared answer cache caps distinct crowd answers at the
				// oracle's question count (~20 on books), so trigger early.
				if answers >= 6 && killOnce.CompareAndSwap(false, true) {
					close(killed)
				}
			},
		})
		report <- rep
		errc <- err
	}()

	select {
	case <-killed:
	case <-time.After(3 * time.Minute):
		srv.Process.Kill()
		t.Fatal("load run never reached the kill threshold")
	}
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv.Wait() //nolint:errcheck // the helper was killed; its exit status is the signal
	t.Log("server killed mid-run; restarting over the same data dir")
	srv2 := startHelperServer(t, addr, dir)
	defer func() {
		srv2.Process.Kill()
		srv2.Wait() //nolint:errcheck
	}()

	rep := <-report
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if rep.Completed != sessions {
		t.Fatalf("%d/%d sessions completed after the kill: %+v", rep.Completed, sessions, rep.Outcomes)
	}
	if !rep.ResultsMatch {
		t.Fatalf("a session diverged from the synchronous oracle after recovery: %+v", rep.Outcomes)
	}
	if rep.Retries == 0 {
		t.Fatal("no transport retries recorded; the kill landed after the run finished and proved nothing")
	}
	t.Logf("completed %d sessions through a SIGKILL: %d answers, %d rejected duplicates, %d retries",
		rep.Completed, rep.Answers, rep.Rejected, rep.Retries)
}
