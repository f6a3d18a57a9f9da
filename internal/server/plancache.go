package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/remp"
)

// planBudget bounds the estimated bytes of the plans nobody holds: about
// nine d-y plans. Held plans are never evicted and never count against it.
const planBudget = 32 << 20

// plan is everything a create spec determines before the human–machine
// loop — the paper's one machine pass per dataset: the loaded KBs, the
// gold standard, the answer-cache namespace and the prepared pipeline
// (whose Cfg carries the spec's options). It is immutable once built, so
// every session of the spec runs over the same one — and, on a clustered
// server, ships its shards to the workers from it.
type plan struct {
	ds        remp.Dataset
	gold      *remp.Gold
	namespace string
	prepared  *core.Prepared
	cost      int64 // planCost's estimate of the bytes above

	key   [sha256.Size]byte
	build sync.Once
	err   error // the build's failure
	// Guarded by PlanCache.mu.
	holds int
	idle  *list.Element // the plan's place on the LRU while nobody holds it
}

// PlanCache is the one place a create spec becomes a pipeline: behind
// the server's create, restore and startup recovery. Its key is the
// SHA-256 of the spec — the create request with client_ref cleared and the
// server's defaults baked in — so sessions that differ only in client_ref
// share one dataset and one core.Prepared. A plan is built single-flight
// on its first acquire (a failed build is handed to every waiter and
// forgotten), ref-counted while a session holds it, and kept afterwards on
// an LRU of idle plans bounded by planBudget. Cluster workers have no
// cache and need none: they are sent shards cut from these plans.
type PlanCache struct {
	prepare func(remp.Dataset, remp.Options) (*core.Prepared, error)
	// runner, on a clustered server, places a plan's shard engines on the
	// workers.
	runner core.RunnerFactory

	hits, misses, evictions *obs.Counter
	resident                *obs.Gauge // estimated bytes, held and idle plans alike

	mu        sync.Mutex
	plans     map[[sha256.Size]byte]*plan
	built     map[*core.Prepared]*plan // the built plans, by pipeline
	idle      list.List                // of *plan, most recently released first
	idleBytes int64                    // the estimated bytes of the plans on idle
}

// NewPlanCache returns an empty cache whose pipelines prepare builds (the
// session manager's PreparePipeline), with its counters registered on reg.
func NewPlanCache(prepare func(remp.Dataset, remp.Options) (*core.Prepared, error), reg *obs.Registry) *PlanCache {
	return &PlanCache{
		prepare:   prepare,
		plans:     make(map[[sha256.Size]byte]*plan),
		built:     make(map[*core.Prepared]*plan),
		hits:      reg.Counter("remp_plan_cache_hits_total", "Sessions started over a plan (dataset + prepared pipeline) an earlier session of the spec left cached."),
		misses:    reg.Counter("remp_plan_cache_misses_total", "Sessions whose spec had no cached plan: one dataset load and one Prepare each."),
		evictions: reg.Counter("remp_plan_cache_evictions_total", "Idle plans dropped to keep the idle ones within the byte budget."),
		resident:  reg.Gauge("remp_plan_cache_resident_bytes", "Estimated bytes of the cached plans, held by a session or idle."),
	}
}

// acquire returns the spec's plan, building it if no session before this
// one left it here, and holds it until release.
func (c *PlanCache) acquire(spec []byte) (*plan, error) {
	key := sha256.Sum256(spec)
	c.mu.Lock()
	pl := c.plans[key]
	if pl == nil {
		c.misses.Inc()
		// The error stands if the build panics; Once hands it to later callers.
		pl = &plan{key: key, err: errors.New("preparing the pipeline panicked")}
		c.plans[key] = pl
	} else {
		c.hits.Inc()
		if pl.idle != nil {
			c.idle.Remove(pl.idle)
			pl.idle = nil
			c.idleBytes -= pl.cost
		}
	}
	pl.holds++
	c.mu.Unlock()
	pl.build.Do(func() { pl.err = c.load(pl, spec) })
	if pl.err != nil {
		// A failed build is not kept: the next acquire of the spec retries.
		c.mu.Lock()
		if c.plans[key] == pl {
			delete(c.plans, key)
		}
		c.mu.Unlock()
		return nil, pl.err
	}
	return pl, nil
}

// load builds the plan: one dataset load, one Prepare.
func (c *PlanCache) load(pl *plan, spec []byte) error {
	var req CreateRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return err
	}
	err := loadSpec(req, pl)
	if err != nil {
		return err
	}
	opts := req.Options
	opts.Runner = c.runner
	if pl.prepared, err = c.prepare(pl.ds, opts); err == nil {
		pl.cost = planCost(pl.ds, pl.prepared)
		c.resident.Add(pl.cost)
		c.mu.Lock()
		c.built[pl.prepared] = pl
		c.mu.Unlock()
	}
	return err
}

// of returns the cached plan whose pipeline p is, nil once it was
// evicted. A session's plan is found while the session holds it: held
// plans are never evicted.
func (c *PlanCache) of(p *core.Prepared) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.built[p]
}

// release ends one hold. A plan nobody holds goes to the front of the
// idle list, and the least recently released plans are dropped until the
// idle ones fit the budget again.
func (c *PlanCache) release(pl *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pl.holds--; pl.holds > 0 {
		return
	}
	pl.idle = c.idle.PushFront(pl)
	c.idleBytes += pl.cost
	for c.idleBytes > planBudget {
		old := c.idle.Remove(c.idle.Back()).(*plan)
		delete(c.plans, old.key)
		delete(c.built, old.prepared)
		c.idleBytes -= old.cost
		c.resident.Add(-old.cost)
		c.evictions.Inc()
	}
}

// entries returns how many plans are cached, held or idle.
func (c *PlanCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// planCost estimates the heap bytes a plan keeps alive, from the counts
// that size it. A KB is flat arrays: per entity its name, label and type
// bytes with their offsets, three index rows and its name-index slots;
// per attribute triple a string into the literal blob and its run; per
// relationship triple an out and an in entry and their runs. A Prepared
// is dominated by its retained vertices (each with a row id) and the ER
// graph's rows; the distinct (similarity vector, prior) rows the vertices
// share are charged once each. The per-unit weights were fitted to
// HeapAlloc deltas on the built-in datasets; TestPlanCostEstimate holds
// them within a factor 2. Twelve bytes a vertex more are the isolated-pair
// classifier's, which a plan builds on its first session: a signature id,
// and a role byte and predictions in each outcome its memo holds.
func planCost(ds remp.Dataset, p *core.Prepared) int64 {
	s1, s2 := ds.K1.Stats(), ds.K2.Stats()
	return int64(60*(s1.Entities+s2.Entities) + 35*(s1.AttrTriples+s2.AttrTriples) + 25*(s1.RelTriples+s2.RelTriples) +
		116*p.Graph.NumVertices() + 8*(p.Builder.Dim()+1)*p.NumRows() + 80*p.Graph.NumEdges())
}
