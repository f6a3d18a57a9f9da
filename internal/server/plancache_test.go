package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/remp"
)

// idlePlans counts the plans nobody holds.
func idlePlans(c *PlanCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idle.Len()
}

// sessionPlan returns the plan session id runs over, nil when the server
// does not serve it.
func sessionPlan(srv *Server, id string) *plan {
	sess, ok := srv.mgr.Get(id)
	if !ok {
		return nil
	}
	return srv.plans.of(sess.Prepared())
}

// planStats are a cache's counters, read together.
type planStats struct {
	hits, misses, evictions, residentBytes int64
	entries                                int
}

func (c *PlanCache) stats() planStats {
	return planStats{c.hits.Value(), c.misses.Value(), c.evictions.Value(), c.resident.Value(), c.entries()}
}

// countPrepares wraps the server's prepare hook — the one call a plan
// build makes after its one dataset load — with a counter.
func countPrepares(srv *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := srv.plans.prepare
	srv.plans.prepare = func(ds remp.Dataset, opts remp.Options) (*core.Prepared, error) {
		n.Add(1)
		return inner(ds, opts)
	}
	return &n
}

// finishAll polls and answers the sessions round-robin until all are
// done: siblings over one namespace hold each other's open questions.
func finishAll(t *testing.T, c *Client, gold *remp.Gold, ids []string) {
	t.Helper()
	for hops := 0; hops < 500; hops++ {
		open := 0
		for _, id := range ids {
			info, err := c.Batch(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.State == string(remp.SessionDone) {
				continue
			}
			open++
			for _, q := range info.Batch {
				if _, err := c.PostAnswers(id, []AnswerDTO{oracleAnswer(t, gold, q.ID)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if open == 0 {
			return
		}
	}
	t.Fatalf("sessions %v did not finish", ids)
}

// wantOracle checks a finished session against the synchronous run.
func wantOracle(t *testing.T, c *Client, id string, ds remp.Dataset, want *remp.Result) {
	t.Helper()
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Questions != want.Questions || res.Loops != want.Loops || len(res.Matches) != len(want.Matches) ||
		res.Confirmed != len(want.Confirmed) || res.Propagated != len(want.Propagated) ||
		res.IsolatedPredicted != len(want.IsolatedPredicted) || res.NonMatches != len(want.NonMatches) {
		t.Fatalf("session %s: done=%v, %d questions / %d loops / %d matches (%d+%d+%d) / %d non-matches; the oracle has %d / %d / %d (%d+%d+%d) / %d",
			id, res.Done, res.Questions, res.Loops, len(res.Matches), res.Confirmed, res.Propagated, res.IsolatedPredicted, res.NonMatches,
			want.Questions, want.Loops, len(want.Matches), len(want.Confirmed), len(want.Propagated), len(want.IsolatedPredicted), len(want.NonMatches))
	}
	names := map[[2]string]bool{}
	for m := range want.Matches {
		names[[2]string{ds.K1.EntityName(m.U1), ds.K2.EntityName(m.U2)}] = true
	}
	for _, m := range res.Matches {
		if !names[m] {
			t.Fatalf("session %s matched %v, the oracle did not", id, m)
		}
	}
}

// TestPlanCacheConcurrentCreates: N concurrent creates of one spec that
// differ only in client_ref cost one dataset load and one core.Prepare,
// yield N sessions over one plan, and each resolves as remp.Resolve does.
func TestPlanCacheConcurrentCreates(t *testing.T) {
	const n = 8
	ds, gold, req := fixture(t, 5)
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), req.Options)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	prepares := countPrepares(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req
			r.ClientRef = fmt.Sprintf("job-%d", i)
			info, err := c.CreateSession(r)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = info.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := srv.plans.stats()
	if prepares.Load() != 1 || st.misses != 1 || st.hits != n-1 || st.entries != 1 {
		t.Fatalf("%d creates of one spec: %d prepares, %d misses, %d hits, %d plans; want 1, 1, %d, 1",
			n, prepares.Load(), st.misses, st.hits, st.entries, n-1)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
		if sessionPlan(srv, id) != sessionPlan(srv, ids[0]) {
			t.Fatalf("sessions %s and %s run over different plans", id, ids[0])
		}
	}
	if len(seen) != n {
		t.Fatalf("%d creates made %d sessions: %v", n, len(seen), ids)
	}
	finishAll(t, c, gold, ids)
	for _, id := range ids {
		wantOracle(t, c, id, ds, want)
	}
}

// TestPlanCacheFailedBuild: a failing build is returned to every acquire
// waiting on it and is not cached, so the next one builds again.
func TestPlanCacheFailedBuild(t *testing.T) {
	const n = 6
	boom := errors.New("boom")
	gate := make(chan struct{})
	var prepares atomic.Int64
	cache := NewPlanCache(func(remp.Dataset, remp.Options) (*core.Prepared, error) {
		prepares.Add(1)
		<-gate
		return nil, boom
	}, obs.NewRegistry())
	spec := []byte(`{"dataset":"books","seed":1,"options":{}}`)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cache.acquire(spec)
			errs <- err
		}()
	}
	for cache.stats().hits != n-1 { // every other acquire waits on the one build
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("a waiter got %v, want the build's error", err)
		}
	}
	if st := cache.stats(); st.entries != 0 || st.residentBytes != 0 {
		t.Fatalf("a failed build stayed cached: %+v", st)
	}
	if _, err := cache.acquire(spec); !errors.Is(err, boom) || prepares.Load() != 2 {
		t.Fatalf("acquire after a failed build: %v after %d prepares, want a second build", err, prepares.Load())
	}

	// The same over the wire, for the failures a client can cause.
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	for _, bad := range []CreateRequest{
		{Dataset: "no-such-dataset"},
		{KB1TSV: "E\tonly-two-fields\n", KB2TSV: "garbage"},
	} {
		for try := 0; try < 2; try++ {
			if _, err := c.CreateSession(bad); err == nil || !strings.Contains(err.Error(), "400") {
				t.Fatalf("create %+v: %v, want a 400", bad, err)
			}
		}
	}
	if st := srv.plans.stats(); st.misses != 4 || st.hits != 0 || st.entries != 0 {
		t.Fatalf("four failed creates: %+v, want 4 misses and nothing cached", st)
	}
}

// TestPlanCacheEviction: a plan a session holds survives any amount of
// idle churn; idle plans leave least-recently-released first once their
// estimated bytes exceed the budget; and with every hold gone the
// resident bytes are within the budget again.
func TestPlanCacheEviction(t *testing.T) {
	cache := NewPlanCache(remp.PreparePipeline, obs.NewRegistry())
	spec := func(seed int) []byte {
		b, err := json.Marshal(CreateRequest{Dataset: "d-y", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	held, err := cache.acquire(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	churn := int(planBudget/held.cost) + 4
	for seed := 1; seed <= churn; seed++ {
		pl, err := cache.acquire(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		cache.release(pl)
	}
	st := cache.stats()
	if st.evictions == 0 || st.residentBytes-held.cost > planBudget || st.residentBytes <= planBudget/2 {
		t.Fatalf("after churning %d idle plans of ≈ %d bytes: %+v, want evictions and idle bytes under the %d budget", churn, held.cost, st, planBudget)
	}
	if st.entries != idlePlans(cache)+1 {
		t.Fatalf("%d plans cached, %d idle: exactly one is held", st.entries, idlePlans(cache))
	}
	// The held plan is still the cached one; the last released are hits,
	// the first released is gone.
	if again, err := cache.acquire(spec(0)); err != nil || again != held {
		t.Fatalf("the held plan was evicted (%v)", err)
	}
	cache.release(held)
	before := cache.stats()
	for _, seed := range []int{churn, churn - 1, 1} {
		pl, err := cache.acquire(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		cache.release(pl)
	}
	if after := cache.stats(); after.hits-before.hits != 2 || after.misses-before.misses != 1 {
		t.Fatalf("re-acquiring the two newest and the oldest idle plan: %d hits, %d misses; want 2 and 1",
			after.hits-before.hits, after.misses-before.misses)
	}
	cache.release(held)
	if st := cache.stats(); st.residentBytes > planBudget || st.entries != idlePlans(cache) {
		t.Fatalf("with nothing held: %+v, %d idle; want everything idle within the budget", st, idlePlans(cache))
	}
}

// TestPlanCacheRerun is serve-disk's pattern — cold, DELETE, the same
// spec again — read from the scrape: the rerun is a hit on the idle plan.
func TestPlanCacheRerun(t *testing.T) {
	_, ts, c := metricsFixture(t)
	_, gold, req := fixture(t, 4)
	for _, ref := range []string{"cold", "rerun"} {
		req.ClientRef = ref
		info, err := c.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		finishAll(t, c, gold, []string{info.ID})
		if err := c.Delete(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	text := scrape(t, ts)
	for name, want := range map[string]float64{
		"remp_plan_cache_misses_total":    1,
		"remp_plan_cache_hits_total":      1,
		"remp_plan_cache_evictions_total": 0,
	} {
		if got := sampleValue(t, text, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	resident := sampleValue(t, text, "remp_plan_cache_resident_bytes")
	if resident <= 0 || resident > planBudget {
		t.Errorf("remp_plan_cache_resident_bytes = %v with one idle plan", resident)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		PlanCache struct {
			Entries       int     `json:"entries"`
			ResidentBytes float64 `json:"resident_bytes"`
		} `json:"plan_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.PlanCache.Entries != 1 || health.PlanCache.ResidentBytes != resident {
		t.Errorf("/healthz plan_cache = %+v, want 1 entry of %v bytes", health.PlanCache, resident)
	}
}

// TestPlanCacheRestoreAndRecovery: /restore and startup recovery go
// through the cache like create does — k sessions over one spec, restored
// or recovered from a disk store, prepare once and share one plan.
func TestPlanCacheRestoreAndRecovery(t *testing.T) {
	const k = 3
	ds, gold, req := fixture(t, 5)
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), req.Options)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewServer(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	prepares := countPrepares(srv)
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL)
	var ids []string
	for i := 0; i < k; i++ {
		req.ClientRef = fmt.Sprintf("job-%d", i)
		info, err := c.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	first, err := c.Batch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range first.Batch {
		if _, err := c.PostAnswers(ids[0], []AnswerDTO{oracleAnswer(t, gold, q.ID)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Snapshot(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := srv.plans.stats(); prepares.Load() != 1 || st.misses != 1 || st.hits != k {
		t.Fatalf("%d creates and a restore of one spec: %d prepares, %+v; want 1 prepare, 1 miss, %d hits", k, prepares.Load(), st, k)
	}
	// One more session, over a spec of its own, whose log ends in a done
	// marker its loop never reached: its plan opens, its replay fails.
	broken := req
	broken.ClientRef, broken.Options.Mu = "broken", req.Options.Mu+1
	doomed, err := c.CreateSession(broken)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close() // abandon the process without a shutdown
	log, err := os.OpenFile(filepath.Join(dir, "sessions", doomed.ID+".log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString(`{"seq":0,"done":true}` + "\n"); err != nil {
		t.Fatal(err)
	}
	log.Close()

	store2, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, recovered, err := NewServer(Config{Store: store2})
	if err == nil || !strings.Contains(err.Error(), doomed.ID) || len(recovered) != k {
		t.Fatalf("recovered %v (%v), want %d sessions and an error for %s", recovered, err, k, doomed.ID)
	}
	if st := srv2.plans.stats(); st.misses != 2 || st.hits != k-1 || st.entries != 2 || idlePlans(srv2.plans) != 1 {
		t.Fatalf("recovering %d sessions of one spec and a broken one: %+v with %d idle, want 2 misses, %d hits, one plan held and the broken session's idle",
			k, st, idlePlans(srv2.plans), k-1)
	}
	if _, ok := srv2.mgr.Get(doomed.ID); ok {
		t.Fatalf("the session that failed to recover kept its server-side state")
	}
	for _, id := range recovered {
		if sessionPlan(srv2, id) != sessionPlan(srv2, recovered[0]) {
			t.Fatalf("recovered sessions %s and %s run over different plans", id, recovered[0])
		}
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	c2 := NewClient(ts2.URL)
	finishAll(t, c2, gold, recovered)
	for _, id := range recovered {
		wantOracle(t, c2, id, ds, want)
		if err := c2.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv2.plans.stats(); st.entries != 2 || idlePlans(srv2.plans) != 2 {
		t.Fatalf("every session deleted: %+v with %d idle, want both plans idle", st, idlePlans(srv2.plans))
	}
}

// TestDeleteKeepsRepointedRef: a DELETE forgets the session's own
// client_ref only while the ref still names that session. Here a restore
// carrying the ref of an older live session re-points it; deleting the
// older session must leave the ref with the newer one.
func TestDeleteKeepsRepointedRef(t *testing.T) {
	c, _ := newTestServer(t)
	_, _, req := fixture(t, 4)
	req.ClientRef = "job"
	older, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	req.ClientRef = "other"
	newer, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(newer.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(newer.ID); err != nil {
		t.Fatal(err)
	}
	snap.Create.ClientRef = "job"
	if _, err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(older.ID); err != nil {
		t.Fatal(err)
	}
	req.ClientRef = "job"
	got, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != newer.ID {
		t.Fatalf("create with the re-pointed ref returned %s, want the newer session %s", got.ID, newer.ID)
	}
}

// TestPlanCostEstimate holds planCost within a factor 2 of the heap a
// plan really keeps alive, on three shapes: few relations (d-y), many
// relations per entity (iimb), and a large dense clustered graph. The plan
// has served a session, so the isolated-pair classifier's inputs and memo
// are built.
func TestPlanCostEstimate(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	byName := func(name string) func() *datasets.Dataset {
		return func() *datasets.Dataset {
			d, err := datasets.ByName(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	for name, load := range map[string]func() *datasets.Dataset{
		"d-y":       byName("d-y"),
		"iimb":      byName("iimb"),
		"clustered": func() *datasets.Dataset { return datasets.Clustered(120, 60, 3) },
	} {
		before := heap()
		d := load()
		ds, gold := remp.Dataset{K1: d.K1, K2: d.K2}, d.Gold
		d = nil
		p, err := remp.PreparePipeline(ds, remp.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		p.Run(crowd.NewPlatform(gold.IsMatch, crowd.Config{Seed: 1}))
		measured := heap() - before
		estimate := planCost(ds, p)
		t.Logf("%s: estimated %d bytes, measured %d (%.2f×)", name, estimate, measured, float64(estimate)/float64(measured))
		if estimate > 2*measured || measured > 2*estimate {
			t.Errorf("%s: planCost %d is not within 2× of the measured %d bytes", name, estimate, measured)
		}
		runtime.KeepAlive(gold)
		runtime.KeepAlive(p)
	}
}

// TestDeleteRacesCreate aims DELETEs at the next few session IDs while
// one create runs, round after round. A DELETE that lands after the
// Manager has admitted the session, before the create returns, must take
// it out for good: after each round the session is served and held by the
// Manager, or neither; GET /v1/sessions lists it exactly when GET
// /v1/sessions/{id} answers 200; and once it is deleted the one plan has
// no holds left. The rounds run in process, without TCP, so the DELETEs
// come fast enough to hit the admission's window. Run it under -race.
func TestDeleteRacesCreate(t *testing.T) {
	const rounds, deleters, ahead = 3000, 4, 3
	_, _, req := fixture(t, 1)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	h := srv.Handler()
	do := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	holds := func() int {
		srv.plans.mu.Lock()
		defer srv.plans.mu.Unlock()
		n := 0
		for _, pl := range srv.plans.plans {
			n += pl.holds
		}
		return n
	}
	for round := 0; round < rounds; round++ {
		next := round + 1 // a round creates one session, s1 first
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := range deleters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; !stop.Load(); k++ {
					do(http.MethodDelete, fmt.Sprintf("/v1/sessions/s%d", next+k%ahead), nil)
				}
			}()
		}
		created := do(http.MethodPost, "/v1/sessions", body)
		stop.Store(true)
		wg.Wait()
		if created.Code != http.StatusCreated {
			t.Fatalf("round %d: create answered %d: %s", round, created.Code, created.Body)
		}
		var info SessionInfo
		if err := json.Unmarshal(created.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		var list map[string][]string
		if err := json.Unmarshal(do(http.MethodGet, "/v1/sessions", nil).Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		listed := slices.Contains(list["sessions"], info.ID)
		served := do(http.MethodGet, "/v1/sessions/"+info.ID, nil).Code == http.StatusOK
		_, held := srv.mgr.Get(info.ID)
		if listed != served || served != held {
			t.Fatalf("round %d: session %s listed %v, served %v, held by the manager %v", round, info.ID, listed, served, held)
		}
		if served {
			if code := do(http.MethodDelete, "/v1/sessions/"+info.ID, nil).Code; code != http.StatusNoContent {
				t.Fatalf("round %d: DELETE %s answered %d", round, info.ID, code)
			}
		}
		if n := holds(); n != 0 {
			t.Fatalf("round %d: session %s is gone but its plan has %d holds", round, info.ID, n)
		}
	}
}
