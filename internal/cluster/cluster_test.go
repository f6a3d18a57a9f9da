package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pair"
)

// testSpec names a fixture: a synthetic dataset plus the config knobs the
// tests vary. The oracle's Prepared and the clustered run's are both built
// from it; the workers see neither — only the shards the coordinator sends.
type testSpec struct {
	Dataset string
	Seed    int64
	Shards  int
	Mu      int
	Budget  int
	// IsolatedOnly keeps only the ER graph's vertices without an edge, and
	// polls them to the budget: the graph no engine shard has work on.
	IsolatedOnly bool
}

func (s testSpec) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = s.Shards
	cfg.Mu = s.Mu
	cfg.Budget = s.Budget
	cfg.ExhaustBudget = s.IsolatedOnly
	return cfg
}

// prepare builds the spec's pipeline over the dataset.
func (s testSpec) prepare(ds *datasets.Dataset, cfg core.Config) *core.Prepared {
	p := core.Prepare(ds.K1, ds.K2, cfg)
	if s.IsolatedOnly {
		blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: cfg.LabelSimThreshold})
		p = core.PrepareOnRetained(ds.K1, ds.K2, cfg, p.Graph.Isolated(), blk)
	}
	return p
}

// startWorker serves a Worker on a loopback listener.
func startWorker(t *testing.T, faults *Faults) (string, *Worker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Faults: faults, Logf: t.Logf})
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return ln.Addr().String(), w
}

// testCoordinator builds a coordinator with test-speed timeouts.
func testCoordinator(t *testing.T, addrs []string, faults *Faults, m Metrics) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		Workers:           addrs,
		HeartbeatInterval: 50 * time.Millisecond,
		LivenessTimeout:   300 * time.Millisecond,
		RPCTimeout:        500 * time.Millisecond,
		OpTimeout:         30 * time.Second,
		BackoffBase:       2 * time.Millisecond,
		BackoffMax:        40 * time.Millisecond,
		Faults:            faults,
		Metrics:           m,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

func testMetrics() Metrics {
	return Metrics{
		WorkersLive:   &obs.Gauge{},
		WorkerDowns:   &obs.Counter{},
		RPCRetries:    &obs.Counter{},
		Reassignments: &obs.Counter{},
		ReadFallbacks: &obs.Counter{},
	}
}

// assertResultsIdentical is the byte-identity oracle check: every result
// set, the question count and the loop count must match exactly.
func assertResultsIdentical(t *testing.T, want, got *core.Result) {
	t.Helper()
	sets := []struct {
		name      string
		want, got pair.Set
	}{
		{"Matches", want.Matches, got.Matches},
		{"Confirmed", want.Confirmed, got.Confirmed},
		{"Propagated", want.Propagated, got.Propagated},
		{"IsolatedPredicted", want.IsolatedPredicted, got.IsolatedPredicted},
		{"NonMatches", want.NonMatches, got.NonMatches},
	}
	for _, s := range sets {
		if s.want.Len() != s.got.Len() {
			t.Fatalf("%s: %d pairs, want %d", s.name, s.got.Len(), s.want.Len())
		}
		for _, p := range s.want.Sorted() {
			if !s.got.Has(p) {
				t.Fatalf("%s: missing %v", s.name, p)
			}
		}
	}
	if want.Questions != got.Questions {
		t.Fatalf("Questions = %d, want %d", got.Questions, want.Questions)
	}
	if want.Loops != got.Loops {
		t.Fatalf("Loops = %d, want %d", got.Loops, want.Loops)
	}
}

// runLocal is the oracle: the same spec resolved by the in-process runner.
func runLocal(t *testing.T, spec testSpec, asker core.Asker) *core.Result {
	t.Helper()
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return spec.prepare(ds, spec.config()).Run(asker)
}

// runRemote resolves the spec with the shard engines on the coordinator's
// workers. progress, when set, is called with the number of questions
// asked so far after each ask.
func runRemote(t *testing.T, co *Coordinator, spec testSpec, asker core.Asker, progress func(questions int)) *core.Result {
	t.Helper()
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.config()
	cfg.Runner = co.Runner
	p := spec.prepare(ds, cfg)
	if p.NumShards() < 2 && !spec.IsolatedOnly {
		t.Fatalf("fixture produced %d shards, want ≥ 2", p.NumShards())
	}
	if progress != nil {
		asker = &progressAsker{Asker: asker, progress: progress}
	}
	return p.Run(asker)
}

// progressAsker reports each ask to progress.
type progressAsker struct {
	core.Asker
	asked    int
	progress func(questions int)
}

func (a *progressAsker) Ask(q pair.Pair) []crowd.Label {
	labels := a.Asker.Ask(q)
	a.asked++
	a.progress(a.asked)
	return labels
}

func oracleFor(t *testing.T, spec testSpec) *core.OracleAsker {
	t.Helper()
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewOracleAsker(ds.Gold.IsMatch)
}

// TestRemoteRunnerMatchesLocal is the cluster's oracle-equivalence
// guarantee on a healthy cluster: a run whose shard engines live on two
// worker processes resolves byte-identically to the synchronous
// in-process run, across config variants that exercise rank, gather,
// ball and rebuild (via re-estimation) on three and four shards. Damp,
// which only a fallible crowd reaches, is the next test's.
func TestRemoteRunnerMatchesLocal(t *testing.T) {
	cases := []struct {
		name string
		spec testSpec
	}{
		{"default", testSpec{Dataset: "books", Seed: 7, Shards: 4, Mu: 4}},
		{"three-shards", testSpec{Dataset: "books", Seed: 8, Shards: 3, Mu: 5}},
		{"budgeted", testSpec{Dataset: "books", Seed: 9, Shards: 4, Mu: 3, Budget: 25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a1, _ := startWorker(t, nil)
			a2, _ := startWorker(t, nil)
			co := testCoordinator(t, []string{a1, a2}, nil, testMetrics())
			ref := runLocal(t, tc.spec, oracleFor(t, tc.spec))
			got := runRemote(t, co, tc.spec, oracleFor(t, tc.spec), nil)
			assertResultsIdentical(t, ref, got)
		})
	}
}

// TestRemoteRunnerMatchesLocalNoisyCrowd repeats the equivalence check
// with a fallible simulated crowd, so hard-question damping and non-match
// detaches travel the wire too.
func TestRemoteRunnerMatchesLocalNoisyCrowd(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 11, Shards: 4, Mu: 4}
	crowdFor := func() *crowd.Platform {
		ds, err := datasets.ByName(spec.Dataset, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{
			NumWorkers: 20, WorkersPerQuestion: 5, ErrorRate: 0.1, Seed: 3,
		})
	}
	a1, _ := startWorker(t, nil)
	a2, _ := startWorker(t, nil)
	co := testCoordinator(t, []string{a1, a2}, nil, testMetrics())
	ref := runLocal(t, spec, crowdFor())
	got := runRemote(t, co, spec, crowdFor(), nil)
	assertResultsIdentical(t, ref, got)
}

// frameTap relays a worker's connections frame by frame and keeps every
// request with its response: what actually crossed the wire. A non-nil
// mangle rewrites each response before the coordinator reads it.
type frameTap struct {
	mangle func(method string, res *Envelope)

	mu    sync.Mutex
	calls []tappedCall
}

type tappedCall struct {
	method   string
	req, res json.RawMessage
}

// tapWorker starts a worker behind a frameTap with the given mangle hook
// and returns the tap's address — the one to hand the coordinator.
func tapWorker(t *testing.T, mangle func(method string, res *Envelope)) (string, *frameTap) {
	t.Helper()
	worker, _ := startWorker(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tap := &frameTap{mangle: mangle}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go tap.relay(client, worker)
		}
	}()
	return ln.Addr().String(), tap
}

// recorded returns the calls relayed so far.
func (tap *frameTap) recorded() []tappedCall {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return slices.Clone(tap.calls)
}

// relay serves one coordinator connection: a request is forwarded and its
// response awaited before the next is read, which is how the coordinator
// uses a connection.
func (tap *frameTap) relay(client net.Conn, worker string) {
	defer client.Close()
	up, err := net.Dial("tcp", worker)
	if err != nil {
		return
	}
	defer up.Close()
	for {
		req, err := ReadFrame(client)
		if err != nil || WriteFrame(up, req) != nil {
			return
		}
		res, err := ReadFrame(up)
		if err != nil {
			return
		}
		if tap.mangle != nil {
			tap.mangle(req.Method, &res)
		}
		if WriteFrame(client, res) != nil {
			return
		}
		if req.Method != MethodPing {
			tap.mu.Lock()
			tap.calls = append(tap.calls, tappedCall{method: req.Method, req: req.Body, res: res.Body})
			tap.mu.Unlock()
		}
	}
}

// TestIsolatedVerticesStayOffTheWire pins what a cluster session ships:
// isolated vertices are the loop's own, so no gather response lists one —
// as a candidate or in an inferred set — and no resolve or damp command is
// ever logged for one, though the loop confirms some of them and rejects
// others under a fallible crowd; a prepare frame is a runner, a shard number
// and the encoded shard — no spec, no isolated vertex, a few kilobytes for
// all of d-y; and over a graph with no edge at all, where the one engine
// shard has nothing to do, the session is a prepare frame and an end frame
// per worker it touched.
func TestIsolatedVerticesStayOffTheWire(t *testing.T) {
	run := func(t *testing.T, spec testSpec) (*core.Prepared, *core.Result, []tappedCall) {
		a1, tap1 := tapWorker(t, nil)
		a2, tap2 := tapWorker(t, nil)
		co := testCoordinator(t, []string{a1, a2}, nil, testMetrics())
		ds, err := datasets.ByName(spec.Dataset, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		crowdFor := func() *crowd.Platform {
			return crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{NumWorkers: 20, WorkersPerQuestion: 3, ErrorRate: 0.3, Seed: 3})
		}
		res := runRemote(t, co, spec, crowdFor(), nil)
		assertResultsIdentical(t, runLocal(t, spec, crowdFor()), res)
		return spec.prepare(ds, spec.config()), res, append(tap1.recorded(), tap2.recorded()...)
	}

	t.Run("mixed graph", func(t *testing.T) {
		p, res, calls := run(t, testSpec{Dataset: "d-y", Seed: 2, Shards: 4, Mu: 10, Budget: 120})
		verts := p.Graph.Vertices()
		isolated := pair.NewSet(p.Graph.Isolated()...)
		if isolated.Len() == 0 || isolated.Len() == len(verts) {
			t.Fatalf("fixture has %d isolated of %d vertices, want a mix", isolated.Len(), len(verts))
		}
		confirmed, rejected := 0, 0
		for q := range isolated {
			if res.Confirmed.Has(q) {
				confirmed++
			}
			if res.NonMatches.Has(q) {
				rejected++
			}
		}
		t.Logf("isolated vertices: %d of %d; %d confirmed, %d resolved non-matches", isolated.Len(), len(verts), confirmed, rejected)
		if confirmed == 0 || rejected == 0 {
			t.Fatalf("%d isolated vertices confirmed and %d rejected: the loop resolved none of its own", confirmed, rejected)
		}
		gathers, cmds, prepares, prepareBytes := 0, 0, 0, 0
		for _, c := range calls {
			if c.method == MethodPrepare {
				prepares++
				prepareBytes += len(c.req)
				var fields map[string]json.RawMessage
				var req prepareReq
				if err := json.Unmarshal(c.req, &fields); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(c.req, &req); err != nil {
					t.Fatal(err)
				}
				if len(fields) != 3 || fields["runner"] == nil || fields["shard"] == nil || fields["data"] == nil {
					t.Fatalf("a prepare frame carries %d fields, want runner, shard and data alone: %.200s", len(fields), c.req)
				}
				sh, err := core.DecodeShard(req.Data)
				if err != nil {
					t.Fatal(err)
				}
				// Any pipeline's shard holds no vertex back: it gathers them all.
				cands, _ := core.NewShardState(sh).Gather()
				if len(cands) != p.ShardSizes()[req.Shard] {
					t.Fatalf("shard %d arrived with %d vertices, the coordinator's has %d", req.Shard, len(cands), p.ShardSizes()[req.Shard])
				}
				for _, cand := range cands {
					if isolated.Has(cand.Pair) {
						t.Fatalf("the prepare frame of shard %d carries isolated vertex %v", req.Shard, cand.Pair)
					}
				}
			}
			if c.method == MethodPrepare || c.method == MethodEnd {
				continue
			}
			var req shardReq
			var res shardRes
			if err := json.Unmarshal(c.req, &req); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(c.res, &res); err != nil {
				t.Fatal(err)
			}
			for _, cmd := range req.Cmds {
				cmds++
				if (cmd.Op == OpResolve || cmd.Op == OpDamp) && isolated.Has(cmd.Pair) {
					t.Fatalf("%s logged for isolated vertex %v", cmd.Op, cmd.Pair)
				}
			}
			if c.method == MethodGather {
				gathers++
			}
			for _, cand := range res.Cands {
				for _, idx := range cand.Inferred {
					if isolated.Has(verts[idx]) {
						t.Fatalf("gather response carries isolated vertex %v (candidate %v)", verts[idx], cand.Pair)
					}
				}
			}
		}
		if gathers == 0 || cmds == 0 {
			t.Fatalf("tap saw %d gathers and %d commands: nothing was checked", gathers, cmds)
		}
		t.Logf("%d prepare frames, %d bytes", prepares, prepareBytes)
		if prepares != p.NumShards() || prepareBytes >= 64<<10 {
			t.Fatalf("the session's %d prepare frames total %d bytes, want one per shard (%d) and under 64 kB", prepares, prepareBytes, p.NumShards())
		}
	})

	t.Run("all isolated", func(t *testing.T) {
		p, _, calls := run(t, testSpec{Dataset: "d-y", Seed: 2, Shards: 4, Mu: 10, Budget: 60, IsolatedOnly: true})
		if p.Graph.NumEdges() != 0 || p.NumShards() != 1 {
			t.Fatalf("fixture has %d edges and %d shards, want none and the one empty shard", p.Graph.NumEdges(), p.NumShards())
		}
		methods := map[string]int{}
		for _, c := range calls {
			methods[c.method]++
		}
		if methods[MethodPrepare] != 1 || methods[MethodEnd] == 0 || len(methods) != 2 {
			t.Fatalf("frames by method: %v, want one prepare and the end frames only", methods)
		}
	})
}

// TestGatherCarriesTheBatchReads pins what a batch reads of a shard: one
// gather frame. The worker ranks the shard for the session's µ in it — at
// most min(µ, candidates) picks — and adds each pick's ball, so no frame
// ranks a shard, and a ball frame travels only for a confirmed match the
// gather did not pick (a short batch's pad), each one counted as a read
// fallback. The result is the local run's.
func TestGatherCarriesTheBatchReads(t *testing.T) {
	for _, spec := range []testSpec{
		{Dataset: "d-y", Seed: 2, Shards: 4, Mu: 10, Budget: 120},
		{Dataset: "books", Seed: 7, Shards: 4, Mu: 4},
	} {
		t.Run(spec.Dataset, func(t *testing.T) {
			a1, tap1 := tapWorker(t, nil)
			a2, tap2 := tapWorker(t, nil)
			m := testMetrics()
			co := testCoordinator(t, []string{a1, a2}, nil, m)
			got := runRemote(t, co, spec, oracleFor(t, spec), nil)
			assertResultsIdentical(t, runLocal(t, spec, oracleFor(t, spec)), got)
			methods, ranked := map[string]int{}, 0
			for _, c := range append(tap1.recorded(), tap2.recorded()...) {
				methods[c.method]++
				if c.method != MethodGather {
					continue
				}
				var res shardRes
				if err := json.Unmarshal(c.res, &res); err != nil {
					t.Fatal(err)
				}
				if len(res.Picks) > min(spec.Mu, len(res.Cands)) || len(res.Balls) != len(res.Picks) {
					t.Fatalf("a gather of %d candidates answered µ %d with %d picks and %d balls, want at most min(µ, candidates) picks and a ball per pick",
						len(res.Cands), spec.Mu, len(res.Picks), len(res.Balls))
				}
				ranked += len(res.Picks)
			}
			t.Logf("frames by method: %v; %d picks ridden on gathers; %d questions", methods, ranked, got.Questions)
			if ranked == 0 || methods["rank"] != 0 || int64(methods[MethodBall]) != m.ReadFallbacks.Value() {
				t.Fatalf("%d picks rode the gathers, %d rank and %d ball frames were sent, %d read fallbacks counted; want picks, no rank frame and a ball frame per fallback",
					ranked, methods["rank"], methods[MethodBall], m.ReadFallbacks.Value())
			}
		})
	}
}

// TestHostileGatherAnswerFailsTheLoop: a gather or ball answer is input
// from another process, so the runner checks it before it or the loop
// indexes anything by it. A gather answer with more picks than the batch,
// a ball missing, a pick naming no candidate, a picked candidate that
// infers nothing or a vertex the graph does not have, one whose pair is no
// vertex of the shard, or a ball naming a pair outside the shard fails the
// loop at its first gather, before any question is published. A fallback
// ball answer naming a pair outside the shard fails it at the read. Each
// fails with ErrBadGather — no panic, no retry.
func TestHostileGatherAnswerFailsTheLoop(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 7, Shards: 4, Mu: 4}
	stranger := pair.Pair{U1: math.MaxInt32, U2: math.MaxInt32}
	// onGather mangles the gather answers that carry picks.
	onGather := func(f func(res *shardRes)) func(string, *shardRes) {
		return func(method string, res *shardRes) {
			if method == MethodGather && len(res.Picks) > 0 {
				f(res)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		mangle func(method string, res *shardRes)
		want   string
		// atBall: the fault is in a fallback ball answer, so the loop fails
		// when it reads a pad's ball, not at its first gather.
		atBall bool
	}{
		{"picks past the batch", onGather(func(res *shardRes) {
			for len(res.Picks) <= min(spec.Mu, len(res.Cands)) {
				res.Picks, res.Balls = append(res.Picks, res.Picks[0]), append(res.Balls, res.Balls[0])
			}
		}), "picks for a batch of 4", false},
		{"ball missing", onGather(func(res *shardRes) { res.Balls = res.Balls[:len(res.Balls)-1] }), "balls for", false},
		{"pick out of range", onGather(func(res *shardRes) { res.Picks[0].Index = len(res.Cands) }), "pick ", false},
		{"pick infers nothing", onGather(func(res *shardRes) {
			for _, pk := range res.Picks {
				res.Cands[pk.Index].Inferred = nil
			}
		}), "infers nothing", false},
		{"pick infers past the graph", onGather(func(res *shardRes) {
			for _, pk := range res.Picks {
				res.Cands[pk.Index].Inferred = append(res.Cands[pk.Index].Inferred, math.MaxInt32)
			}
		}), "infers vertex", false},
		{"pick outside the shard", onGather(func(res *shardRes) {
			for i, pk := range res.Picks {
				res.Cands[pk.Index].Pair = pair.Pair{U1: stranger.U1 - 1 - kb.EntityID(i), U2: stranger.U2}
			}
		}), "not a vertex of the shard", false},
		{"ball outside the shard", onGather(func(res *shardRes) {
			for i := range res.Balls {
				res.Balls[i] = append(res.Balls[i], stranger)
			}
		}), "not a vertex of the shard", false},
		// A gather that ranks nothing is well formed; it leaves every
		// shard question a pad, whose confirmation reads its ball by RPC.
		{"fallback ball outside the shard", func(method string, res *shardRes) {
			switch method {
			case MethodGather:
				res.Picks, res.Balls = nil, nil
			case MethodBall:
				res.Ball = append(res.Ball, stranger)
			}
		}, "not a vertex of the shard", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mangle := func(method string, env *Envelope) {
				var res shardRes
				if (method != MethodGather && method != MethodBall) || json.Unmarshal(env.Body, &res) != nil {
					return
				}
				tc.mangle(method, &res)
				env.Body = mustMarshal(res)
			}
			a1, _ := tapWorker(t, mangle)
			a2, _ := tapWorker(t, mangle)
			m := testMetrics()
			co := testCoordinator(t, []string{a1, a2}, nil, m)
			ds, err := datasets.ByName(spec.Dataset, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := spec.config()
			cfg.Runner = co.Runner
			l := spec.prepare(ds, cfg).NewLoop()
			// Every question is answered a match, so a published pick or pad
			// is confirmed and its ball propagated.
			asker := core.NewOracleAsker(func(pair.Pair) bool { return true })
			if tc.atBall {
				if l.State() == core.LoopFailed {
					t.Fatalf("loop failed at its first gather: %v", l.Err())
				}
				l.Run(asker)
				if m.ReadFallbacks.Value() == 0 {
					t.Fatal("no ball was read by RPC: the fallback answer was never checked")
				}
			} else if l.State() != core.LoopFailed {
				// Run on, so an unchecked fault shows what it does to the loop.
				state := l.State()
				_, err := l.Run(asker)
				t.Fatalf("loop is %s after its first gather; run on, it ended %s with error %v, want it refused at the gather", state, l.State(), err)
			}
			if l.State() != core.LoopFailed || !errors.Is(l.Err(), ErrBadGather) || !strings.Contains(l.Err().Error(), tc.want) {
				t.Fatalf("loop is %s with error %v, want failed with ErrBadGather naming %q", l.State(), l.Err(), tc.want)
			}
			if m.RPCRetries.Value() != 0 {
				t.Errorf("%d RPC retries, want none: a malformed answer is not a transport failure", m.RPCRetries.Value())
			}
		})
	}
}

// TestCloseIsConcurrent: Close releases a runner's shards concurrently and
// then ends it on every worker concurrently, so with every frame delayed
// by d, a runner of four shards on two workers closes in two delays, not
// the six of one frame after another.
func TestCloseIsConcurrent(t *testing.T) {
	const d = 150 * time.Millisecond
	spec := testSpec{Dataset: "books", Seed: 7, Shards: 4, Mu: 4}
	a1, w1 := startWorker(t, nil)
	a2, w2 := startWorker(t, nil)
	co := testCoordinator(t, []string{a1, a2}, &Faults{DelayEveryN: 1, Delay: d}, testMetrics())
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.prepare(ds, spec.config())
	if p.NumShards() != 4 {
		t.Fatalf("fixture has %d shards, want 4", p.NumShards())
	}
	remote, err := co.Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := range p.NumShards() {
		// A gather logs a sync, so Close has each shard to release.
		if _, _, err := remote.Gather(s); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	remote.Close()
	if took := time.Since(start); took >= 3*d {
		t.Fatalf("Close took %v with every frame delayed %v, want under %v", took, d, 3*d)
	}
	if n := w1.NumShards() + w2.NumShards(); n != 0 {
		t.Fatalf("the workers hold %d shard states after Close, want none", n)
	}
}

// TestClusterFailoverWorkerDeath kills one of three in-process workers
// mid-run: the coordinator must mark it down, re-prepare its shards on
// the survivors from the command log, and finish byte-identical to the
// local oracle, with reassignments and a down transition recorded.
func TestClusterFailoverWorkerDeath(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 12, Shards: 6, Mu: 3}
	a1, w1 := startWorker(t, nil)
	a2, _ := startWorker(t, nil)
	a3, _ := startWorker(t, nil)
	m := testMetrics()
	co := testCoordinator(t, []string{a1, a2, a3}, nil, m)

	ref := runLocal(t, spec, oracleFor(t, spec))
	var killed atomic.Bool
	got := runRemote(t, co, spec, oracleFor(t, spec), func(questions int) {
		if questions >= ref.Questions/4 && killed.CompareAndSwap(false, true) {
			t.Logf("killing worker %s after %d questions", a1, questions)
			w1.Close()
		}
	})
	if !killed.Load() {
		t.Fatal("kill threshold never reached")
	}
	assertResultsIdentical(t, ref, got)
	if m.Reassignments.Value() == 0 {
		t.Error("no shard reassignments recorded after worker death")
	}
	if m.WorkerDowns.Value() == 0 {
		t.Error("no worker-down transition recorded")
	}
}

// TestFailoverReplaysRetirement reassigns a shard mid-batch, in the
// failover setup above: after a confirmation retired q and before q's ball
// is read. The survivor rebuilds the shard from its command log, so it must
// serve q the ball of the last logged sync — the one the in-process state
// serves — and report the same recompute count at release.
func TestFailoverReplaysRetirement(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 12, Shards: 6, Mu: 3}
	var addrs []string
	var workers []*Worker
	for range 3 {
		a, w := startWorker(t, nil)
		addrs, workers = append(addrs, a), append(workers, w)
	}
	m := testMetrics()
	co := testCoordinator(t, addrs, nil, m)
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.prepare(ds, spec.config())
	local, _ := core.NewLocalRunner(p)
	remote, err := co.Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	both := func(op func(r core.ShardRunner) error) {
		t.Helper()
		for _, r := range []core.ShardRunner{local, remote} {
			if err := op(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// questions gathers shard s on both runners and copies out the pairs of
	// its candidates that propagate, and of the local runner's picks for a
	// batch of the spec's µ: the next gather refills the lists.
	questions := func(s int) (qs []pair.Pair, picked pair.Set) {
		both(func(r core.ShardRunner) error {
			cands, _, err := r.Gather(s)
			qs = qs[:0]
			for _, c := range cands {
				if len(c.Inferred) > 1 {
					qs = append(qs, c.Pair)
				}
			}
			if err != nil || r != local {
				return err
			}
			picks, err := r.Rank(s, spec.Mu)
			picked = pair.NewSet()
			for _, pk := range picks {
				picked.Add(cands[pk.Index].Pair)
			}
			return err
		})
		return qs, picked
	}
	s := 0
	for qs, _ := questions(s); len(qs) < 4; qs, _ = questions(s) {
		s++
	}
	qs, _ := questions(s)
	// One batch: a confirmation, a non-match detach and a hard question.
	both(func(r core.ShardRunner) error { return r.Resolve(s, qs[0], false) })
	both(func(r core.ShardRunner) error { return r.Resolve(s, qs[1], true) })
	both(func(r core.ShardRunner) error { return r.Damp(s, qs[2], 0.5) })
	// The next batch confirms q; its owner dies before q's ball is read.
	// The gather carried the balls of its picks, so q is one it did not
	// pick (a short batch's pad): its ball is read from the worker.
	next, picked := questions(s)
	i := slices.IndexFunc(next, func(p pair.Pair) bool { return !picked.Has(p) })
	if i < 0 {
		t.Fatalf("shard %d picked every candidate that propagates: %v", s, next)
	}
	q := next[i]
	both(func(r core.ShardRunner) error { return r.Resolve(s, q, false) })
	workers[s%len(workers)].Close() // shards are dealt round robin
	fallbacks := m.ReadFallbacks.Value()
	want, _ := local.Ball(s, q)
	got, err := remote.Ball(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(want, got) {
		t.Fatalf("ball of retired %v after failover = %v, the local state serves %v", q, got, want)
	}
	if m.Reassignments.Value() == 0 || m.ReadFallbacks.Value() != fallbacks+1 {
		t.Fatalf("%d reassignments and %d ball reads sent to a worker; want the shard reassigned by the one read",
			m.Reassignments.Value(), m.ReadFallbacks.Value()-fallbacks)
	}
	wantN, _ := local.Release(s)
	gotN, _ := remote.Release(s)
	if wantN != gotN {
		t.Fatalf("the replayed engine ran %d recomputes, the local one %d", gotN, wantN)
	}
}

// TestClusterCrashFault exercises the worker-side kill-after-N-RPCs chaos
// fault: the worker tears itself down mid-run exactly as a SIGKILL would,
// and the survivor absorbs its shards with no effect on the result. The
// fault trips halfway through the RPCs the same worker handles in a
// healthy run of the spec, so it lands mid-run however many frames a run
// takes.
func TestClusterCrashFault(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 13, Shards: 4, Mu: 4}
	ref := runLocal(t, spec, oracleFor(t, spec))
	run := func(faults *Faults) Metrics {
		a1, _ := startWorker(t, faults)
		a2, _ := startWorker(t, nil)
		m := testMetrics()
		co := testCoordinator(t, []string{a1, a2}, nil, m)
		assertResultsIdentical(t, ref, runRemote(t, co, spec, oracleFor(t, spec), nil))
		return m
	}
	// A fault that never trips still counts the RPCs its worker handles.
	count := &Faults{CrashAfterRPCs: math.MaxInt64}
	run(count)
	handled := count.rpcs.Load()
	if handled < 4 {
		t.Fatalf("the first worker handled %d RPCs in a healthy run, too few to crash mid-run", handled)
	}
	t.Logf("the first worker handles %d RPCs in a healthy run; crashing it after %d", handled, handled/2)
	if m := run(&Faults{CrashAfterRPCs: handled / 2}); m.Reassignments.Value() == 0 {
		t.Error("no shard reassignments recorded after crash fault")
	}
}

// TestClusterSurvivesChaos runs under coordinator-side frame chaos —
// duplicated and dropped frames plus injected latency — and must still be
// oracle-identical: duplicates are absorbed by the idempotent command
// watermark and stale-response skipping, drops by timeout and retry.
func TestClusterSurvivesChaos(t *testing.T) {
	cases := []struct {
		name    string
		faults  *Faults
		retries bool
	}{
		{"duplicates", &Faults{DuplicateEveryN: 2}, false},
		{"drops", &Faults{DropEveryN: 6}, true},
		{"delays", &Faults{DelayEveryN: 3, Delay: 10 * time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec{Dataset: "books", Seed: 14, Shards: 4, Mu: 4}
			a1, _ := startWorker(t, nil)
			a2, _ := startWorker(t, nil)
			m := testMetrics()
			co := testCoordinator(t, []string{a1, a2}, tc.faults, m)
			ref := runLocal(t, spec, oracleFor(t, spec))
			got := runRemote(t, co, spec, oracleFor(t, spec), nil)
			assertResultsIdentical(t, ref, got)
			if tc.retries && m.RPCRetries.Value() == 0 {
				t.Error("dropped frames produced no recorded retries")
			}
		})
	}
}

// TestWorkerDuplicateCommandDelivery pins answer-delivery idempotency at
// the worker boundary: the same command tail delivered twice (a duplicated
// or replayed frame) is applied once, and a gap is rejected.
func TestWorkerDuplicateCommandDelivery(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 15, Shards: 2, Mu: 4}
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{})
	prepare := prepareReq{Runner: "r", Shard: 0, Data: spec.prepare(ds, spec.config()).Shard(0).Encode()}
	if _, _, err := w.handlePrepare(7, prepare); err != nil {
		t.Fatal(err)
	}
	gatherOnce := func() shardRes {
		body, kind, err := w.handleShard(MethodGather, shardReq{Runner: "r", Shard: 0, Cmds: []Cmd{{Seq: 1, Op: OpSync}}})
		if err != nil {
			t.Fatalf("gather (kind %q): %v", kind, err)
		}
		var res shardRes
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := gatherOnce()
	if first.Applied != 1 {
		t.Fatalf("applied = %d, want 1", first.Applied)
	}
	// Redelivering the identical frame must dedup, not double-apply.
	second := gatherOnce()
	if second.Applied != 1 {
		t.Fatalf("applied after duplicate = %d, want 1", second.Applied)
	}
	if len(first.Cands) != len(second.Cands) {
		t.Fatalf("duplicate delivery changed candidates: %d vs %d", len(first.Cands), len(second.Cands))
	}
	// So must a redelivered prepare frame: a prepare that restarted the
	// state now would strand the coordinator's watermark above the worker's.
	if _, _, err := w.handlePrepare(7, prepare); err != nil {
		t.Fatal(err)
	}
	if third := gatherOnce(); third.Applied != 1 {
		t.Fatalf("applied after a duplicated prepare frame = %d, want 1: the state was restarted", third.Applied)
	}
	// A sequence gap means divergent history and must be rejected.
	if _, _, err := w.handleShard(MethodApply, shardReq{Runner: "r", Shard: 0, Cmds: []Cmd{{Seq: 5, Op: OpSync}}}); err == nil {
		t.Fatal("command gap accepted")
	}
	// A prepare under a new ID is the coordinator starting over — a retry,
	// a failover — and does restart the state, for the log to be replayed.
	if _, _, err := w.handlePrepare(8, prepare); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.handleShard(MethodApply, shardReq{Runner: "r", Shard: 0, Cmds: []Cmd{{Seq: 2, Op: OpSync}}}); err == nil {
		t.Fatal("a re-prepared state accepted a command past sequence 1")
	}
	// An unknown shard is a state error the coordinator repairs by
	// re-preparing.
	if _, kind, err := w.handleShard(MethodGather, shardReq{Runner: "r", Shard: 1}); err == nil || kind != ErrKindState {
		t.Fatalf("missing shard: kind %q, err %v; want state error", kind, err)
	}
}

// TestOversizedShardFailsAtBirth: a shard whose prepare frame would exceed
// MaxFrameBytes can be sent to no worker, and says nothing about any
// worker's health. The loop fails at birth with ErrFrameTooLarge — at once,
// not after OpTimeout of retries — no worker is struck or marked down, no
// shard state is left behind, and the next session on the same coordinator
// runs as if nothing had happened. Encoding the padding starves the process
// of CPU for seconds under the race detector with other packages' tests
// beside it, so the coordinator's liveness window and RPC deadline are the
// defaults' and longer, not testCoordinator's fraction of a second: only
// the oversized frame may fail here.
func TestOversizedShardFailsAtBirth(t *testing.T) {
	spec := testSpec{Dataset: "books", Seed: 16, Shards: 2, Mu: 4}
	a1, w1 := startWorker(t, nil)
	a2, w2 := startWorker(t, nil)
	m := testMetrics()
	co, err := NewCoordinator(CoordinatorConfig{
		Workers:           []string{a1, a2},
		HeartbeatInterval: 50 * time.Millisecond,
		LivenessTimeout:   30 * time.Second,
		Metrics:           m,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ds, err := datasets.ByName(spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.config()
	cfg.Runner = co.Runner
	p := spec.prepare(ds, cfg)

	// Shard 0 alone is padded: past the bound once base64 has had its third.
	var padded atomic.Bool
	encodeShard = func(sh *core.Shard) []byte {
		if padded.CompareAndSwap(false, true) {
			return append(sh.Encode(), make([]byte, MaxFrameBytes/4*3+1024)...)
		}
		return sh.Encode()
	}
	t.Cleanup(func() { encodeShard = (*core.Shard).Encode })
	start := time.Now()
	l := p.NewLoop()
	if l.State() != core.LoopFailed || !errors.Is(l.Err(), ErrFrameTooLarge) {
		t.Fatalf("loop is %s with error %v, want failed with ErrFrameTooLarge", l.State(), l.Err())
	}
	for _, part := range []string{"shard ", " bytes", strconv.Itoa(MaxFrameBytes)} {
		if !strings.Contains(l.Err().Error(), part) {
			t.Errorf("the error does not name %q: %v", part, l.Err())
		}
	}
	// About 0.1 s, seconds under the race detector (it is all encoding the
	// padding); a failure that was retried would take the 30 s OpTimeout.
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("the loop took %v to fail, want it to fail at once", took)
	}
	if m.WorkerDowns.Value() != 0 || m.RPCRetries.Value() != 0 || co.LiveWorkers() != 2 {
		t.Errorf("%d worker downs, %d RPC retries, %d live workers; want 0, 0 and 2", m.WorkerDowns.Value(), m.RPCRetries.Value(), co.LiveWorkers())
	}
	waitFor(t, 5*time.Second, func() bool { return w1.NumShards()+w2.NumShards() == 0 })

	assertResultsIdentical(t, runLocal(t, spec, oracleFor(t, spec)), runRemote(t, co, spec, oracleFor(t, spec), nil))
}

// TestCoordinatorStatus pins the liveness snapshot /healthz reports.
func TestCoordinatorStatus(t *testing.T) {
	a1, w1 := startWorker(t, nil)
	a2, _ := startWorker(t, nil)
	m := testMetrics()
	co := testCoordinator(t, []string{a1, a2}, nil, m)
	waitFor(t, time.Second, func() bool { return co.LiveWorkers() == 2 })
	w1.Close()
	waitFor(t, 5*time.Second, func() bool { return co.LiveWorkers() == 1 })
	var downAddr string
	for _, st := range co.Status() {
		if !st.Live {
			downAddr = st.Addr
		}
	}
	if downAddr != a1 {
		t.Fatalf("down worker = %q, want %q", downAddr, a1)
	}
	if m.WorkersLive.Value() != 1 {
		t.Fatalf("workers-live gauge = %d, want 1", m.WorkersLive.Value())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestSlowPongsWaitForLivenessTimeout: a ping that misses its deadline —
// as pings do while a busy coordinator holds the only CPU — strikes no
// worker. The heartbeat alone marks a worker down, after LivenessTimeout
// without a pong; the strike limit's three missed calls are for shard
// RPCs, which the same slow worker does strike out on.
func TestSlowPongsWaitForLivenessTimeout(t *testing.T) {
	const deadline = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var requests atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					req, err := ReadFrame(c)
					if err != nil {
						return
					}
					requests.Add(1)
					time.Sleep(3 * deadline)
					if WriteFrame(c, Envelope{V: ProtocolVersion, ID: req.ID, Kind: FrameResponse}) != nil {
						return
					}
				}
			}()
		}
	}()
	m := testMetrics()
	// The heartbeat never ticks: the test makes every call itself, so no
	// pong can reset a strike.
	co, err := NewCoordinator(CoordinatorConfig{
		Workers:           []string{ln.Addr().String()},
		HeartbeatInterval: time.Hour,
		LivenessTimeout:   time.Minute,
		Metrics:           m,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	wc := co.workers[0]
	call := func(method string) error {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		_, _, err := wc.call(ctx, method, struct{}{}, false)
		return err
	}
	for i := range 2 * strikeLimit {
		if err := call(MethodPing); err == nil {
			t.Fatalf("ping %d returned within %v from a worker that answers after %v", i, deadline, 3*deadline)
		}
	}
	// Every ping reached the worker: its pongs were late, not missing.
	waitFor(t, 5*time.Second, func() bool { return requests.Load() >= 2*strikeLimit })
	if co.LiveWorkers() != 1 || m.WorkerDowns.Value() != 0 {
		t.Fatalf("%d live workers, %d worker downs after %d late pongs; want 1 and 0 within the %v liveness timeout",
			co.LiveWorkers(), m.WorkerDowns.Value(), 2*strikeLimit, time.Minute)
	}
	for range strikeLimit {
		call(MethodApply)
	}
	if co.LiveWorkers() != 0 || m.WorkerDowns.Value() != 1 {
		t.Fatalf("%d live workers, %d worker downs after %d late shard RPCs; want 0 and 1", co.LiveWorkers(), m.WorkerDowns.Value(), strikeLimit)
	}
}

// TestParseFaults pins the -chaos flag grammar.
func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("drop=7,dup=5,delay=3:20ms,kill=100")
	if err != nil {
		t.Fatal(err)
	}
	want := &Faults{DropEveryN: 7, DuplicateEveryN: 5, DelayEveryN: 3, Delay: 20 * time.Millisecond, CrashAfterRPCs: 100}
	if f.DropEveryN != want.DropEveryN || f.DuplicateEveryN != want.DuplicateEveryN ||
		f.DelayEveryN != want.DelayEveryN || f.Delay != want.Delay || f.CrashAfterRPCs != want.CrashAfterRPCs {
		t.Fatalf("ParseFaults: drop=%d dup=%d delay=%d:%v kill=%d, want drop=%d dup=%d delay=%d:%v kill=%d",
			f.DropEveryN, f.DuplicateEveryN, f.DelayEveryN, f.Delay, f.CrashAfterRPCs,
			want.DropEveryN, want.DuplicateEveryN, want.DelayEveryN, want.Delay, want.CrashAfterRPCs)
	}
	if f, err := ParseFaults(""); err != nil || f != nil {
		t.Fatalf("empty chaos spec: %v, %v", f, err)
	}
	for _, bad := range []string{"drop", "drop=0", "drop=x", "dup=-1", "delay=3", "delay=0:10ms", "delay=3:bogus", "kill=0", "explode=1"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestFaultsNilSafe pins that a nil *Faults injects nothing.
func TestFaultsNilSafe(t *testing.T) {
	var f *Faults
	if f.drop() || f.duplicate() || f.crashDue() || f.delay() != 0 {
		t.Fatal("nil Faults injected a fault")
	}
}
