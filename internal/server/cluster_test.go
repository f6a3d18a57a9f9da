package server

import (
	"context"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/remp"
)

// TestWorkerPlanCache pins the key and the lifetime of a worker's cached
// plans, through a clustered server over two in-process workers whose
// plan caches count their Prepare calls. Sessions whose create requests
// differ only in client_ref hash to one spec and share one Prepare per
// worker; a runner holds the plan until it ends — by finishing or by a
// DELETE mid-run — and the plan then stays cached idle, so the next
// session of the spec does not prepare again; and a survivor that never
// saw a spec still prepares it when a dead worker's shard fails over
// onto it.
func TestWorkerPlanCache(t *testing.T) {
	var prepares [2]atomic.Int64
	var caches [2]*PlanCache
	var workers [2]*cluster.Worker
	var addrs []string
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = NewPlanCache(func(ds remp.Dataset, opts remp.Options) (*core.Prepared, error) {
			prepares[i].Add(1)
			return remp.PreparePipeline(ds, opts)
		}, nil)
		workers[i] = cluster.NewWorker(cluster.WorkerConfig{Prepare: caches[i].Acquire})
		go workers[i].Serve(ln)
		t.Cleanup(func() { workers[i].Close() })
		addrs = append(addrs, ln.Addr().String())
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
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	_, gold, req := fixture(t, 5)
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
	// A batch is empty while a sibling holds every open question, and
	// fills from the shared answer cache once the sibling has answered them.
	finish := func(id string, gold *remp.Gold) {
		t.Helper()
		finishAll(t, c, gold, []string{id})
	}
	wantPrepares := func(when string, w0, w1 int64) {
		t.Helper()
		if g0, g1 := prepares[0].Load(), prepares[1].Load(); g0 != w0 || g1 != w1 {
			t.Fatalf("%s: workers prepared %d and %d times, want %d and %d", when, g0, g1, w0, w1)
		}
	}

	// wantHeld waits for the runners' end frames to land: each worker
	// then holds the given number of its cached plans, the rest are idle.
	wantHeld := func(when string, held int) {
		t.Helper()
		for _, c := range caches {
			deadline := time.Now().Add(5 * time.Second)
			for c.entries()-idlePlans(c) != held {
				if time.Now().After(deadline) {
					t.Fatalf("%s: a worker holds %d of its %d plans, want %d", when, c.entries()-idlePlans(c), c.entries(), held)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// Two shards land one on each worker.
	a, b := create(req, "a", 2), create(req, "b", 2)
	wantPrepares("two live sessions differing only in client_ref", 1, 1)
	wantHeld("two live sessions over one plan", 1)
	finish(a.ID, gold)
	finish(b.ID, gold)
	wantHeld("both sessions finished", 0)
	third := create(req, "c", 2)
	wantPrepares("a session created after both ended: the idle plan serves it", 1, 1)
	finish(third.ID, gold)

	// A session DELETEd mid-run closes its loop and with it the runner, so
	// the workers let go of its plan exactly as for a finished session.
	// KBs of its own keep the namespace cache from finishing it at create.
	_, doomedGold, doomedReq := fixture(t, 7)
	doomed := create(doomedReq, "e", 2)
	wantPrepares("a session over new KBs", 2, 2)
	if doomed.State == string(remp.SessionDone) {
		t.Fatal("the session finished at create; the DELETE would not be mid-run")
	}
	wantHeld("a live session", 1)
	if err := c.Delete(doomed.ID); err != nil {
		t.Fatal(err)
	}
	wantHeld("a mid-run DELETE of the plan's only session", 0)
	again := create(doomedReq, "f", 2)
	wantPrepares("a session created after a mid-run DELETE of its only sibling", 2, 2)
	finish(again.ID, doomedGold)

	// A single shard lands on worker 0; worker 1 first sees the spec when
	// worker 0 dies and the shard fails over. The session runs over KBs of
	// its own, so no sibling's cached answers finish it before the kill.
	ds, gold, req := fixture(t, 6)
	lone := create(req, "d", 1)
	wantPrepares("a single-shard session", 3, 2)
	workers[0].Close()
	finish(lone.ID, gold)
	wantPrepares("failover onto the survivor", 3, 3)

	opts := req.Options.ToOptions()
	opts.Shards = 1
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(lone.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != want.Questions || res.Loops != want.Loops || len(res.Matches) != len(want.Matches) ||
		res.NonMatches != len(want.NonMatches) {
		t.Fatalf("failed-over session: %d questions, %d loops, %d matches, %d non-matches; the oracle has %d, %d, %d, %d",
			res.Questions, res.Loops, len(res.Matches), res.NonMatches,
			want.Questions, want.Loops, len(want.Matches), len(want.NonMatches))
	}
}
