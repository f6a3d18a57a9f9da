package server

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/remp"
)

// countingRelay forwards a worker's connections and counts the bytes the
// coordinator sends it: what a session costs on the wire, frame prefixes
// included.
func countingRelay(t *testing.T, worker string, sent *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", worker)
			if err != nil {
				client.Close()
				continue
			}
			go func() {
				defer up.Close()
				defer client.Close()
				io.Copy(client, up) //nolint:errcheck // the relay ends with either side
			}()
			go func() {
				defer up.Close()
				defer client.Close()
				io.Copy(countingWriter{up, sent}, client) //nolint:errcheck // as above
			}()
		}
	}()
	return ln.Addr().String()
}

// countingWriter counts what is about to be written through it.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	cw.n.Add(int64(len(p)))
	return cw.w.Write(p)
}

// testCluster is a clustered server over two in-process workers that have
// nothing but a listener: no dataset, no KB file, no Prepare hook. sent
// counts the bytes the coordinator has written to them.
type testCluster struct {
	srv     *Server
	ts      *httptest.Server
	c       *Client
	workers [2]*cluster.Worker
	sent    atomic.Int64
}

func startCluster(t *testing.T) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var addrs []string
	for i := range tc.workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.workers[i] = cluster.NewWorker(cluster.WorkerConfig{})
		go tc.workers[i].Serve(ln)
		t.Cleanup(func() { tc.workers[i].Close() })
		addrs = append(addrs, countingRelay(t, ln.Addr().String(), &tc.sent))
	}
	srv, _, err := NewServer(Config{Workers: addrs, ClusterTuning: cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		LivenessTimeout:   300 * time.Millisecond,
		RPCTimeout:        2 * time.Second,
		BackoffBase:       2 * time.Millisecond,
		BackoffMax:        40 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	tc.srv = srv
	tc.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(tc.ts.Close)
	tc.c = NewClient(tc.ts.URL)
	return tc
}

// wantStates waits for the runners' prepare and end frames to land: each
// live worker then holds the given number of shard states.
func (tc *testCluster) wantStates(t *testing.T, when string, states ...int) {
	t.Helper()
	for i, want := range states {
		deadline := time.Now().Add(5 * time.Second)
		for tc.workers[i].NumShards() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: worker %d holds %d shard states, want %d", when, i, tc.workers[i].NumShards(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestWorkerPlanCache pins what is left of a worker's cache: nothing. It
// runs the scenario that used to count worker-side Prepares — two sessions
// differing only in client_ref, a third after both ended, a DELETE
// mid-run, a failover onto a survivor — against workers that could not
// prepare if asked to: they have no dataset access and no Prepare hook,
// and the sessions run over inline TSV only the server ever sees. Every
// session finishes equal to remp.Resolve, the server's plan cache reads
// one miss per spec, a worker holds exactly the shard states of the live
// runners assigned to it, and none after their end frames.
func TestWorkerPlanCache(t *testing.T) {
	tc := startCluster(t)
	c := tc.c
	prepares := countPrepares(tc.srv)

	ds, gold, req := fixture(t, 5)
	create := func(req CreateRequest, ref string, shards int) *SessionInfo {
		t.Helper()
		r := req
		r.ClientRef, r.Options.Shards = ref, shards
		info, err := c.CreateSession(r)
		if err != nil {
			t.Fatal(err)
		}
		if info.Shards != shards {
			t.Fatalf("session %s runs over %d shards, want %d", info.ID, info.Shards, shards)
		}
		return info
	}
	oracle := func(ds remp.Dataset, gold *remp.Gold, req CreateRequest, shards int) *remp.Result {
		t.Helper()
		opts := req.Options.ToOptions()
		opts.Shards = shards
		want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	// A batch is empty while a sibling holds every open question, and
	// fills from the shared answer cache once the sibling has answered them.
	finish := func(id string, gold *remp.Gold, ds remp.Dataset, want *remp.Result) {
		t.Helper()
		finishAll(t, c, gold, []string{id})
		wantOracle(t, c, id, ds, want)
	}
	wantPlans := func(when string, misses, hits int64) {
		t.Helper()
		if st := tc.srv.plans.stats(); st.misses != misses || st.hits != hits || prepares.Load() != misses {
			t.Fatalf("%s: the server prepared %d times, %+v; want %d misses (one Prepare each) and %d hits", when, prepares.Load(), st, misses, hits)
		}
	}

	// Two shards land one on each worker.
	want := oracle(ds, gold, req, 2)
	a, b := create(req, "a", 2), create(req, "b", 2)
	wantPlans("two live sessions differing only in client_ref", 1, 1)
	tc.wantStates(t, "two live sessions of two shards", 2, 2)
	finish(a.ID, gold, ds, want)
	finish(b.ID, gold, ds, want)
	tc.wantStates(t, "both sessions finished", 0, 0)
	third := create(req, "c", 2)
	wantPlans("a session created after both ended: the server's idle plan serves it", 1, 2)
	finish(third.ID, gold, ds, want) // the siblings' cached answers may have finished it at create
	tc.wantStates(t, "the third session finished", 0, 0)

	// A session DELETEd mid-run closes its loop and with it the runner, so
	// the workers drop its shards exactly as for a finished session. KBs of
	// its own keep the namespace cache from finishing it at create.
	doomedDS, doomedGold, doomedReq := fixture(t, 7)
	doomed := create(doomedReq, "e", 2)
	wantPlans("a session over new KBs", 2, 2)
	if doomed.State == string(remp.SessionDone) {
		t.Fatal("the session finished at create; the DELETE would not be mid-run")
	}
	tc.wantStates(t, "a live session", 1, 1)
	if err := c.Delete(doomed.ID); err != nil {
		t.Fatal(err)
	}
	tc.wantStates(t, "a mid-run DELETE", 0, 0)
	again := create(doomedReq, "f", 2)
	wantPlans("a session created after a mid-run DELETE of its only sibling", 2, 3)
	finish(again.ID, doomedGold, doomedDS, oracle(doomedDS, doomedGold, doomedReq, 2))
	tc.wantStates(t, "the re-created session finished", 0, 0)

	// A single shard lands on worker 0; worker 1 first hears of the session
	// when worker 0 dies and the shard — encoded again from the server's
	// plan — fails over. The session runs over KBs of its own, so no
	// sibling's cached answers finish it before the kill.
	loneDS, loneGold, loneReq := fixture(t, 6)
	lone := create(loneReq, "d", 1)
	wantPlans("a single-shard session", 3, 3)
	tc.wantStates(t, "a single-shard session", 1, 0)
	tc.workers[0].Close()
	finish(lone.ID, loneGold, loneDS, oracle(loneDS, loneGold, loneReq, 1))
	wantPlans("failover onto the survivor: nothing prepared again", 3, 3)
	if n := sampleValue(t, scrape(t, tc.ts), "remp_cluster_shard_reassignments_total"); n < 1 {
		t.Fatalf("the dead worker's shard was reassigned %v times, want at least once", n)
	}
	tc.wantStates(t, "the failed-over session finished", 0, 0)
}

// TestClusterCreateShipsShardsNotSpec: what a clustered create costs on
// the wire is its shards, however large the spec. A create request padded
// to 7 MiB of inline TSV — the server's body cap is 8 — puts a few
// kilobytes on the workers' connections, and resolves like its unpadded
// twin.
func TestClusterCreateShipsShardsNotSpec(t *testing.T) {
	tc := startCluster(t)
	ds, gold, req := fixture(t, 5)
	req.KB1TSV += strings.Repeat("# "+strings.Repeat("padding ", 127)+"\n", 7<<10) // comment lines of 1 KiB
	req.Options.Shards = 2
	opts := req.Options.ToOptions()
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := tc.c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	finishAll(t, tc.c, gold, []string{info.ID})
	wantOracle(t, tc.c, info.ID, ds, want)
	tc.wantStates(t, "the session finished", 0, 0)
	sent := tc.sent.Load() // every frame of the session was answered, so counted
	if sent == 0 || sent > 256<<10 {
		t.Fatalf("a session created from %d bytes of inline TSV put %d bytes on the workers' connections, want a few kilobytes", len(req.KB1TSV)+len(req.KB2TSV), sent)
	}
	t.Logf("spec %d bytes, wire %d bytes", len(req.KB1TSV)+len(req.KB2TSV), sent)
}

// TestCreateFailsWhenRunnerCannotStart: a clustered create whose shards no
// worker takes is refused — 502, with the runner's reason in the body —
// rather than answered 201 with a session that was dead at birth; no
// session, no client ref and no hold on the plan stay behind.
func TestCreateFailsWhenRunnerCannotStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here any more
	srv, _, err := NewServer(Config{Workers: []string{dead}, ClusterTuning: cluster.CoordinatorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		LivenessTimeout:   60 * time.Millisecond,
		RPCTimeout:        100 * time.Millisecond,
		OpTimeout:         300 * time.Millisecond,
		BackoffBase:       2 * time.Millisecond,
		BackoffMax:        20 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, _, req := fixture(t, 4)
	req.ClientRef = "job"
	_, err = NewClient(ts.URL).CreateSession(req)
	if err == nil || !strings.Contains(err.Error(), "HTTP 502") || !strings.Contains(err.Error(), "shard runner failed") || !strings.Contains(err.Error(), "cluster:") {
		t.Fatalf("create over a dead cluster: %v, want a 502 carrying the runner's failure", err)
	}
	if ids := srv.mgr.IDs(); len(ids) != 0 || len(srv.refs) != 0 || idlePlans(srv.plans) != 1 {
		t.Fatalf("the refused create left sessions %v, %d refs and %d idle plans; want none, none and its plan idle", ids, len(srv.refs), idlePlans(srv.plans))
	}
}
