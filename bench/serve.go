package bench

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

// serveDataset is the built-in dataset every served session runs on.
const serveDataset = "d-y"

// Each session of the kill/recover phase receives recoverAnswers
// answers before the first kill — a batch and a half, all still in the
// WAL (the snapshot rotates every 32) — and recoverStep more before each
// later one. Recovery folds what it replayed into a fresh snapshot, so
// without the extra answers only the first restart would read a WAL;
// with them every restart reads a snapshot and a WAL suffix. 15 + 2×10
// stays under the session budget.
const (
	recoverAnswers = 15
	recoverStep    = 10
)

// serveBudget caps every served session at 40 crowd questions. Left to
// its stop criterion a d-y session asks 40 to 350 questions depending on
// the dataset seed (most ask 50), which moved the summed question count
// and — because longer sessions amortize their create — the throughput
// by 20 % from one bench seed to the next. 40 is the shortest natural
// length (about one seed in 900 stops by itself at 30), so every session
// does the same four turns and f1 reads as F1 at a fixed crowd cost (the
// paper's Figure 5 axis).
const serveBudget = 40

// spec is one served session's inputs. Every cold session needs a
// dataset seed of its own: the server's answer cache is per (dataset,
// seed) namespace, and a second session on a namespace is a rerun.
type spec struct {
	dsSeed int64
	ref    string
}

func (e *env) specFor(group string, client, i int) spec {
	// Dataset seeds are disjoint across bench seeds, clients and phases.
	base := e.seed*100_000 + int64(client)*10_000 + int64(i)
	if group == "recover" {
		base += 50_000
	}
	return spec{dsSeed: base, ref: fmt.Sprintf("e2e-%d-%s-%d-%d", e.seed, group, client, i)}
}

func (s spec) request(kind string, deduce bool) server.CreateRequest {
	return server.CreateRequest{
		Dataset:   serveDataset,
		Seed:      s.dsSeed,
		ClientRef: s.ref + "-" + kind, // unique per create: a reused ref hands back the old session
		Options:   server.OptionsDTO{Seed: s.dsSeed, Shards: Shards, Deduce: deduce, Budget: serveBudget},
	}
}

func (s spec) dataset() (*datasets.Dataset, error) { return datasets.ByName(serveDataset, s.dsSeed) }

// outcome is what one served session's client observed.
type outcome struct {
	spec      spec
	kind      string // cold, rerun, recover
	id        string
	createMS  float64
	acks      []float64 // answer POSTs that did not close their batch
	turns     []float64 // answer POSTs that closed it (the loop turn rides on them)
	lifeMS    float64   // create → result
	answers   int       // crowd answers accepted
	questions int
	deduced   int
	f1        float64
	result    []byte // canonical /result
	calls     int    // HTTP calls attempted
	info      *server.SessionInfo
	err       error
}

// client is one closed-loop client: it sends its next request only when
// the previous one has been answered, with zero think time.
type client struct {
	e      *env
	api    *server.Client
	deduce bool
}

func (e *env) newClient(base string, deduce bool) *client {
	api := server.NewClient(base)
	api.HTTP = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return &client{e: e, api: api, deduce: deduce}
}

// open creates a session and answers it until it is done — then
// fetching its result and, when del, deleting it — or, when maxAnswers
// > 0, until that many answers were accepted.
func (c *client) open(sp spec, kind string, l labeler, maxAnswers int, del bool) *outcome {
	tr := c.e.tracer
	o := &outcome{spec: sp, kind: kind}
	traceID := tr.NewTraceID()
	root := tr.Start(traceID, 0, "bench", "session."+kind)
	defer tr.End(root)
	t0 := time.Now()
	o.calls++
	id := tr.Start(traceID, root, "server", "http.create")
	info, err := c.api.CreateSession(sp.request(kind, c.deduce))
	if err != nil {
		o.err = fmt.Errorf("create: %w", err) // the span stays open: a failed operation times nothing
		return o
	}
	tr.End(id)
	o.createMS = millis(time.Since(t0))
	o.id, o.info = info.ID, info
	c.answer(o, l, traceID, root, maxAnswers)
	if o.err == nil && maxAnswers == 0 {
		c.finish(o, traceID, root, t0, del)
	}
	return o
}

// answer posts one answer per request, always for the head of the
// latest published batch — with deduction on, an accepted answer can
// withdraw later batch members — until the session is done.
func (c *client) answer(o *outcome, l labeler, traceID, root int64, maxAnswers int) {
	tr := c.e.tracer
	info := o.info
	for info.State != string(remp.SessionDone) && (maxAnswers == 0 || o.answers < maxAnswers) {
		if len(info.Batch) == 0 {
			// Only reachable when a sibling holds every open question;
			// the workloads never run two sessions on one namespace at once.
			o.calls++
			id := tr.Start(traceID, root, "server", "http.batch")
			next, err := c.api.Batch(o.id)
			if err != nil {
				o.err = fmt.Errorf("batch: %w", err)
				return
			}
			tr.End(id)
			if len(next.Batch) == 0 && next.State != string(remp.SessionDone) {
				o.err = fmt.Errorf("session %s awaits answers but publishes no question", o.id)
				return
			}
			info = next
			continue
		}
		q := info.Batch[0]
		p, err := session.ParseQuestionID(q.ID)
		if err != nil {
			o.err = err
			return
		}
		ans := []server.AnswerDTO{{ID: q.ID, Labels: l.labels(p)}}
		o.calls++
		t0 := time.Now()
		id := tr.Start(traceID, root, "server", "http.answers")
		resp, err := c.api.PostAnswers(o.id, ans)
		if err != nil {
			o.err = fmt.Errorf("answers: %w", err)
			return
		}
		tr.End(id)
		d := millis(time.Since(t0))
		if resp.Accepted != 1 || len(resp.Rejected) != 0 {
			o.err = fmt.Errorf("answer %s rejected: %+v", q.ID, resp.Rejected)
			return
		}
		o.answers++
		if resp.Loops > info.Loops || resp.State == string(remp.SessionDone) {
			o.turns = append(o.turns, d)
		} else {
			o.acks = append(o.acks, d)
		}
		info = &resp.SessionInfo
	}
	o.info = info
}

// finish fetches the final result and, when del, deletes the session.
func (c *client) finish(o *outcome, traceID, root int64, t0 time.Time, del bool) {
	tr := c.e.tracer
	o.calls++
	id := tr.Start(traceID, root, "server", "http.result")
	res, err := c.api.Result(o.id)
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return
	}
	tr.End(id)
	o.lifeMS = millis(time.Since(t0))
	if !res.Done {
		o.err = fmt.Errorf("session %s: result fetched before the session was done", o.id)
		return
	}
	o.questions, o.deduced = res.Questions, res.Deduced
	if res.PRF != nil {
		o.f1 = res.PRF.F1
	}
	o.result = canonicalDTO(res)
	if !del {
		return
	}
	o.calls++
	id = tr.Start(traceID, root, "server", "http.delete")
	if err := c.api.Delete(o.id); err != nil {
		o.err = fmt.Errorf("delete: %w", err)
		return
	}
	tr.End(id)
}

// answerMore continues a recovered session against the restarted
// server until it has accepted maxAnswers answers in total — or, with
// maxAnswers 0, until it is done, then fetching and deleting it.
func (c *client) answerMore(o *outcome, l labeler, maxAnswers int) {
	tr := c.e.tracer
	traceID := tr.NewTraceID()
	root := tr.Start(traceID, 0, "bench", "session.resume")
	defer tr.End(root)
	o.calls++
	info, err := c.api.Batch(o.id)
	if err != nil {
		o.err = fmt.Errorf("batch after recovery: %w", err)
		return
	}
	o.info = info
	c.answer(o, l, traceID, root, maxAnswers)
	if o.err == nil && maxAnswers == 0 {
		c.finish(o, traceID, root, time.Now(), true)
	}
}

// serveState is the children and results of one serve-* run.
type serveState struct {
	serverBin, workerBin string
	dataDir              string
	workers              []*proc
	workerAddrs          []string
	relays               []*relay
	srv                  *serverProc
	servers              []*serverProc // every incarnation, for rusage
	outcomes             []*outcome
	oracles              map[int64][]byte  // dsSeed → canonical oracle result
	labelers             map[int64]labeler // dsSeed → simulated crowd
	relayStats           []relayStat       // taken at teardown, before the relays close
}

// generate produces the inputs of every session the run will open:
// each spec's dataset is generated once, here in set-up, and its gold
// standard kept as the simulated crowd's label function.
func (st *serveState) generate(e *env, clustered bool) error {
	st.labelers = map[int64]labeler{}
	st.oracles = map[int64][]byte{}
	var specs []spec
	if clustered {
		for i := 0; i < e.sizes.ClusterSessions; i++ {
			specs = append(specs, e.specFor("steady", 0, i))
		}
	} else {
		for c := 0; c < 2; c++ {
			for i := 0; i < e.sizes.DiskSpecs; i++ {
				specs = append(specs, e.specFor("steady", c, i))
			}
		}
		for i := 0; i < e.sizes.RecoverSessions; i++ {
			specs = append(specs, e.specFor("recover", 0, i))
		}
	}
	for _, sp := range specs {
		ds, err := sp.dataset()
		if err != nil {
			return err
		}
		st.labelers[sp.dsSeed] = labeler{seed: e.seed, gold: ds.Gold}
	}
	return nil
}

// runServe is the serve-disk workload (clustered false) and the
// serve-cluster workload (clustered true).
func runServe(e *env, clustered bool) error {
	r := e.report
	deduce := !clustered
	st, err := medianSetup(r, e.sizes.Setups, func() (*serveState, error) { return startServe(e, clustered) },
		func(st *serveState) { st.teardown() })
	if err != nil {
		return fmt.Errorf("setup: %w", err) // Run closes its Cleanup, which reaps a half-started set-up
	}
	defer st.teardown()
	e.logf("set-up done: server at %s", st.srv.base)

	// In-process reference on the first specs of client 0: what Prepare
	// and a whole Resolve cost on these inputs without any serving, and
	// the heap one session's pipeline pins. The results double as those
	// specs' oracles.
	if err := st.reference(e, deduce); err != nil {
		return err
	}
	e.logf("in-process reference done")

	before, err := scrapeMetrics(st.srv.base)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	steadyS := st.steady(e, clustered)
	after, err := scrapeMetrics(st.srv.base)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	e.logf("steady phase done: %d sessions in %.1fs", len(st.outcomes), steadyS)

	rec := recovery{}
	if clustered {
		// serve-cluster keeps its sessions, so the directory holds them all.
		rec.dirBytes = dirSize(st.dataDir)
		for _, o := range st.outcomes {
			rec.dirAnswers += o.answers
		}
	} else if rec, err = st.killAndRecover(e); err != nil {
		return err
	}
	final, err := scrapeMetrics(st.srv.base)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}

	t := st.tally(r)
	r.setSamples("recover_s", "s", rec.seconds)
	if steadyS > 0 {
		r.set("answers_per_s", "1/s", float64(t.answers)/steadyS)
	}
	persistFails := after.get("remp_persist_failures_total") + final.get("remp_persist_failures_total")
	r.check(persistFails == 0, "server reports %v persist failures", persistFails)
	r.check(final.get("remp_cluster_worker_downs_total") == 0, "server reports %v worker downs", final.get("remp_cluster_worker_downs_total"))
	if !deduce {
		r.check(t.coldDeduced == 0 && final.sum("remp_deduce_hits_total") == 0, "deduction is off but %d questions were deduced", t.coldDeduced)
	}

	// Verification, outside every timed window: each session's /result
	// must equal the in-process oracle's, byte for byte.
	st.verify(e, deduce)
	e.logf("verification done")

	// Stop the children before reading their rusage.
	st.teardown()
	if e.traced {
		st.reportLayers(e, clustered, after.minus(before), final, t, rec)
	}
	if clustered {
		e.headline("turn_ms_p50")
	} else {
		e.headline("ack_ms_p50")
	}
	return nil
}

// tally is the clients' observations folded over every session that
// succeeded.
type tally struct {
	acks, turns        []float64 // ms, cold sessions of the steady phase
	answers            int       // crowd answers accepted in the steady phase
	coldQ, coldDeduced int       // summed over cold and recovered sessions
}

// tally counts every session's operations into the report — a failed
// session fails once and contributes to no latency metric — and reports
// the client-side serving metrics, questions and f1.
func (st *serveState) tally(r *Report) tally {
	var t tally
	var createMS, rerunMS []float64
	coldN, coldF1 := 0, 0.0
	for _, o := range st.outcomes {
		if o.err != nil {
			r.Attempted += o.calls - 1
			r.fail("%s session %s (d-y seed %d): %v", o.kind, o.id, o.spec.dsSeed, o.err)
			continue
		}
		r.Attempted += o.calls
		switch o.kind {
		case "cold":
			createMS = append(createMS, o.createMS)
			t.acks = append(t.acks, o.acks...)
			t.turns = append(t.turns, o.turns...)
			t.answers += o.answers
		case "rerun":
			rerunMS = append(rerunMS, o.lifeMS)
			t.answers += o.answers
		}
		if o.kind != "rerun" {
			coldN++
			t.coldQ += o.questions
			t.coldDeduced += o.deduced
			coldF1 += o.f1
		}
	}
	r.setSamples("create_ms_p50", "ms", createMS)
	r.setSamples("ack_ms_p50", "ms", t.acks)
	r.setSamples("turn_ms_p50", "ms", t.turns)
	r.setSamples("rerun_ms_p50", "ms", rerunMS)
	if len(t.turns) > 0 {
		r.Metrics["turn_ms_p95"] = Metric{Value: percentile(t.turns, 0.95), Unit: "ms", N: len(t.turns)}
	}
	if len(t.acks) > 0 {
		r.Metrics["server.ack_ms_p99"] = Metric{Value: percentile(t.acks, 0.99), Unit: "ms", N: len(t.acks)}
	}
	if len(createMS) > 0 {
		r.Metrics["server.create_ms_p95"] = Metric{Value: percentile(createMS, 0.95), Unit: "ms", N: len(createMS)}
	}
	if coldN > 0 {
		r.set("questions", "count", float64(t.coldQ))
		r.set("f1", "ratio", coldF1/float64(coldN))
	}
	return t
}

// startServe is one complete set-up: generate the inputs, build the
// binaries from source, start the children on a fresh data directory
// and wait for readiness.
func startServe(e *env, clustered bool) (*serveState, error) {
	st := &serveState{}
	if err := st.generate(e, clustered); err != nil {
		return nil, err
	}
	var err error
	if st.serverBin, st.workerBin, err = e.buildBinaries(); err != nil {
		return nil, err
	}
	if st.dataDir, err = os.MkdirTemp(e.tmpDir, "data-"); err != nil {
		return nil, err
	}
	for i := 0; clustered && i < 2; i++ {
		w, addr, err := e.startWorker(st.workerBin, i)
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, w)
		if e.traced {
			rl, err := newRelay(addr)
			if err != nil {
				return nil, err
			}
			st.relays = append(st.relays, rl)
			addr = rl.addr()
		}
		st.workerAddrs = append(st.workerAddrs, addr)
	}
	if st.srv, err = e.startServer(st.serverBin, st.dataDir, st.workerAddrs); err != nil {
		return nil, err
	}
	st.servers = []*serverProc{st.srv}
	return st, nil
}

// steady runs the closed-loop clients, zero think time, and returns the
// phase's wall time.
func (st *serveState) steady(e *env, clustered bool) float64 {
	clients, perClient := 2, e.sizes.DiskSpecs
	if clustered {
		// Server, two workers and the driver already fill two cores: a
		// second client only adds run-to-run spread.
		clients, perClient = 1, e.sizes.ClusterSessions
	}
	start := time.Now()
	results := make([][]*outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.newClient(st.srv.base, !clustered)
			for i := 0; i < perClient; i++ {
				sp := e.specFor("steady", c, i)
				l := st.labelers[sp.dsSeed]
				cold := cl.open(sp, "cold", l, 0, !clustered)
				results[c] = append(results[c], cold)
				if !clustered && cold.err == nil {
					results[c] = append(results[c], cl.open(sp, "rerun", l, 0, true))
				}
			}
		}(c)
	}
	wg.Wait()
	wall := seconds(time.Since(start))
	for _, rs := range results {
		st.outcomes = append(st.outcomes, rs...)
	}
	return wall
}

// recovery is what the kill/recover phase observed.
type recovery struct {
	seconds             []float64 // server exec → ready, per restart
	replayed, recovered float64   // WAL records replayed (summed), sessions recovered (per restart)
	dirBytes            int64     // data-directory size …
	dirAnswers          int       // … and the accepted answers it holds
}

// killAndRecover is serve-disk's second phase: fresh cold sessions
// answered part way, then RecoverCycles rounds of SIGKILL, restart on the
// same data directory (timed) and a few more answers; finally every
// session is driven to completion.
func (st *serveState) killAndRecover(e *env) (recovery, error) {
	r, sz := e.report, e.sizes
	var rec recovery
	cl := e.newClient(st.srv.base, true)
	var half []*outcome
	for i := 0; i < sz.RecoverSessions; i++ {
		sp := e.specFor("recover", 0, i)
		half = append(half, cl.open(sp, "recover", st.labelers[sp.dsSeed], recoverAnswers, true))
	}
	live := 0
	for _, o := range half {
		rec.dirAnswers += o.answers
		if o.err == nil {
			live++
		}
	}
	for cycle := 0; cycle < sz.RecoverCycles; cycle++ {
		if cycle > 0 {
			cl = e.newClient(st.srv.base, true)
			for _, o := range half {
				if o.err == nil {
					cl.answerMore(o, st.labelers[o.spec.dsSeed], recoverAnswers+cycle*recoverStep)
				}
			}
		}
		st.srv.kill()
		if cycle == 0 {
			rec.dirBytes = dirSize(st.dataDir)
		}
		id := e.tracer.Start(e.tracer.NewTraceID(), 0, "session", "recover")
		srv, err := e.startServer(st.serverBin, st.dataDir, nil)
		if err != nil {
			return rec, fmt.Errorf("restart %d: %w", cycle, err)
		}
		e.tracer.End(id)
		took := seconds(time.Since(srv.started))
		st.srv = srv
		st.servers = append(st.servers, srv)
		ids, err := server.NewClient(srv.base).Sessions()
		if err != nil || len(ids) != live {
			r.fail("recovery %d: %d sessions live after restart, want %d (%v)", cycle, len(ids), live, err)
			continue
		}
		r.ok()
		rec.seconds = append(rec.seconds, took)
		if sc, err := scrapeMetrics(srv.base); err == nil {
			rec.replayed += sc.get("remp_wal_replayed_total")
			rec.recovered = sc.get("remp_sessions_recovered_total")
		}
	}
	cl = e.newClient(st.srv.base, true)
	for _, o := range half {
		if o.err == nil {
			cl.answerMore(o, st.labelers[o.spec.dsSeed], 0)
		}
	}
	st.outcomes = append(st.outcomes, half...)
	e.logf("kill/recover phase done: %d restarts", len(rec.seconds))
	return rec, nil
}

// reference runs the in-process Prepare and Resolve of the first
// RefSpecs steady specs, sequentially on an otherwise idle machine.
func (st *serveState) reference(e *env, deduce bool) error {
	r := e.report
	var prepareS, resolveS, heapMB []float64
	n := e.sizes.RefSpecs
	perClient := e.sizes.DiskSpecs
	if !deduce {
		perClient = e.sizes.ClusterSessions
	}
	if n > perClient {
		n = perClient
	}
	for i := 0; i < n; i++ {
		sp := e.specFor("steady", 0, i)
		ds, err := sp.dataset()
		if err != nil {
			return err
		}
		l := st.labelers[sp.dsSeed]
		o := resolveOpts{seed: sp.dsSeed, deduce: deduce, budget: serveBudget}
		rds := remp.Dataset{K1: ds.K1, K2: ds.K2}
		// d-y's size differs by a few percent from seed to seed, so the heap
		// is the median over the reference specs, not one spec's.
		heap, err := preparedHeapMB(rds, o.public())
		r.check(err == nil, "prepared heap: %v", err)
		heapMB = append(heapMB, heap)
		t0 := time.Now()
		if _, err := remp.PreparePipeline(rds, o.public()); err != nil {
			r.fail("reference prepare (d-y seed %d): %v", sp.dsSeed, err)
			continue
		}
		prepareS = append(prepareS, seconds(time.Since(t0)))
		t0 = time.Now()
		res, err := resolvePublic(ds, l, o)
		if err != nil {
			r.fail("reference resolve (d-y seed %d): %v", sp.dsSeed, err)
			continue
		}
		resolveS = append(resolveS, seconds(time.Since(t0)))
		r.ok()
		st.oracles[sp.dsSeed] = canonicalResult(ds, res)
	}
	r.setSamples("prepare_s", "s", prepareS)
	r.setSamples("resolve_s", "s", resolveS)
	r.setSamples("prepared_heap_mb", "MB", heapMB)
	return nil
}

// verify computes the in-process oracle of every served spec not
// already covered by the reference phase, in parallel, and checks each
// session's result against it.
func (st *serveState) verify(e *env, deduce bool) {
	r := e.report
	var missing []spec
	seen := map[int64]bool{}
	for _, o := range st.outcomes {
		if _, ok := st.oracles[o.spec.dsSeed]; !ok && !seen[o.spec.dsSeed] && o.err == nil {
			seen[o.spec.dsSeed] = true
			missing = append(missing, o.spec)
		}
	}
	canon := make([][]byte, len(missing))
	errs := make([]error, len(missing))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, sp := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sp spec) {
			defer wg.Done()
			defer func() { <-sem }()
			ds, err := sp.dataset()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := resolvePublic(ds, st.labelers[sp.dsSeed], resolveOpts{seed: sp.dsSeed, deduce: deduce, budget: serveBudget})
			if err != nil {
				errs[i] = err
				return
			}
			canon[i] = canonicalResult(ds, res)
		}(i, sp)
	}
	wg.Wait()
	for i, sp := range missing {
		if errs[i] != nil {
			r.fail("oracle for d-y seed %d: %v", sp.dsSeed, errs[i])
			continue
		}
		st.oracles[sp.dsSeed] = canon[i]
	}
	for _, o := range st.outcomes {
		if o.err != nil {
			continue
		}
		want, ok := st.oracles[o.spec.dsSeed]
		if !ok {
			continue // its oracle failure is already counted
		}
		r.check(string(o.result) == string(want),
			"%s session %s (d-y seed %d): /result %s differs from the in-process oracle %s",
			o.kind, o.id, o.spec.dsSeed, digest(o.result), digest(want))
	}
}

// teardown stops every child of the run and waits for each. Idempotent.
func (st *serveState) teardown() {
	if st.srv != nil {
		st.srv.stop()
	}
	for _, s := range st.servers {
		s.kill()
	}
	for _, rl := range st.relays {
		rl.close()
		st.relayStats = append(st.relayStats, rl.stat())
	}
	st.relays = nil
	for _, w := range st.workers {
		w.kill()
	}
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil // a file vanishing mid-walk only shrinks the estimate
	})
	return total
}
