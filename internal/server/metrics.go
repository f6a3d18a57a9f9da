package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/deduce"
	"repro/internal/obs"
	"repro/internal/session"
)

// serverMetrics bundles every metric family one Server exports under
// /metrics. All families are registered up front in newServerMetrics —
// except the manager-backed callbacks, bound in bindManager once the
// session manager exists, and the plan cache's, registered by
// NewPlanCache — so the registry's panic-on-duplicate check runs at
// startup and the hot handlers only touch pre-resolved children.
//
// The families registered here must cover internal/obs/catalog.txt: the
// CI loadgen smoke scrapes a live server and fails on any catalog name
// missing from the exposition.
type serverMetrics struct {
	reg   *obs.Registry
	clock obs.Clock
	// pipe carries the loop-stage trace and engine/loop counters into
	// every pipeline the manager prepares (including recovered ones).
	pipe *obs.Pipeline

	httpInFlight *obs.Gauge
	httpRequests *obs.CounterVec
	httpLatency  *obs.HistogramVec

	sessionsCreated   *obs.Counter
	sessionsRestored  *obs.Counter
	sessionsRecovered *obs.Counter
	sessionsDeleted   *obs.Counter
	answersAccepted   *obs.Counter
	answersRejected   *obs.Counter

	storeAppend *obs.Histogram
	storeFsync  *obs.Histogram

	// cluster carries the coordinator's liveness/retry/failover counters.
	// Registered unconditionally — the catalog contract doesn't know
	// whether a given server runs clustered — so a non-clustered server
	// exports them at zero.
	cluster *cluster.Metrics
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	clock := obs.WallClock()
	m := &serverMetrics{reg: reg, clock: clock}

	reg.GaugeFunc("remp_uptime_seconds", "Seconds since the server came up.", func() float64 {
		return float64(clock()) / 1e9
	})
	m.httpRequests = reg.CounterVec("remp_http_requests_total", "HTTP requests served, by route.", "route")
	m.httpInFlight = reg.Gauge("remp_http_in_flight", "HTTP requests currently being served.")
	m.httpLatency = reg.HistogramVec("remp_http_request_seconds", "HTTP request latency, by route.", "route", nil)

	m.sessionsCreated = reg.Counter("remp_sessions_created_total", "Sessions created via POST /v1/sessions.")
	m.sessionsRestored = reg.Counter("remp_sessions_restored_total", "Sessions restored from client-held snapshots.")
	m.sessionsRecovered = reg.Counter("remp_sessions_recovered_total", "Sessions recovered from the store at startup.")
	m.sessionsDeleted = reg.Counter("remp_sessions_deleted_total", "Sessions deleted via DELETE /v1/sessions/{id}.")
	m.answersAccepted = reg.Counter("remp_answers_accepted_total", "Worker answers accepted and applied.")
	m.answersRejected = reg.Counter("remp_answers_rejected_total", "Worker answers rejected (duplicate, closed, malformed).")

	m.storeAppend = reg.Histogram("remp_store_append_seconds", "Session store answer-log append latency (marshal + write + fsync).", nil)
	m.storeFsync = reg.Histogram("remp_store_fsync_seconds", "Answer-log fsync syscall latency inside AppendAnswer (disk store only).", nil)

	m.cluster = &cluster.Metrics{
		WorkersLive:   reg.Gauge("remp_cluster_workers_live", "Cluster workers currently passing heartbeats (0 when not clustered)."),
		WorkerDowns:   reg.Counter("remp_cluster_worker_downs_total", "Workers marked down after missed heartbeats or repeated transport failures."),
		RPCRetries:    reg.Counter("remp_cluster_rpc_retries_total", "Shard RPC attempts retried after a transport failure or lost worker state."),
		Reassignments: reg.Counter("remp_cluster_shard_reassignments_total", "Shards re-prepared on a surviving worker after their owner was lost."),
	}

	// The loop trace mirrors every stage span into one labeled histogram
	// child; the deterministic pipeline only sees the injected clock.
	trace := obs.NewLoopTrace(clock)
	stageHist := reg.HistogramVec("remp_loop_stage_seconds", "Human-machine loop time per pipeline stage.", "stage", nil)
	for _, st := range obs.Stages() {
		trace.Attach(st, stageHist.With(st.String()))
	}
	m.pipe = &obs.Pipeline{
		Trace:     trace,
		Batches:   reg.Counter("remp_loop_batches_total", "Question batches published across all sessions."),
		Questions: reg.Counter("remp_loop_questions_total", "Questions answered and applied across all sessions."),
		Engine: obs.EngineCounters{
			Recomputes:    reg.Counter("remp_engine_recomputes_total", "Single-source Dijkstra runs across all propagation engines."),
			Invalidations: reg.Counter("remp_engine_invalidations_total", "Ball invalidations recorded by the propagation engines."),
			Rebuilds:      reg.Counter("remp_engine_rebuilds_total", "Whole-graph ball rebuilds across all propagation engines."),
		},
	}
	return m
}

// bindManager registers the scrape-time callbacks that read counters the
// session layer owns. It runs after the Server's manager exists; the
// callbacks fire only when /metrics is scraped, never during recovery.
func (m *serverMetrics) bindManager(s *Server) {
	m.reg.GaugeFunc("remp_sessions_active", "Live sessions registered with the manager.", func() float64 {
		return float64(len(s.mgr.IDs()))
	})
	m.reg.CounterFunc("remp_cache_hits_total", "Answer-cache lookups served from a sibling session's answer.", func() float64 {
		h, _, _ := s.mgr.CacheStats()
		return float64(h)
	})
	m.reg.CounterFunc("remp_cache_misses_total", "Answer-cache lookups that found nothing cached.", func() float64 {
		_, mi, _ := s.mgr.CacheStats()
		return float64(mi)
	})
	m.reg.CounterFunc("remp_cache_reservations_total", "Question reservations granted to sessions.", func() float64 {
		_, _, r := s.mgr.CacheStats()
		return float64(r)
	})
	m.reg.CounterFunc("remp_persist_failures_total", "Sessions whose store append failed; non-zero means stale durable state.", func() float64 {
		return float64(s.mgr.PersistFailures())
	})
	m.reg.CounterFunc("remp_wal_replayed_total", "Answers re-delivered from session logs at recovery.", func() float64 {
		return float64(s.mgr.WALReplayed())
	})
	deduceVec := func(pick func(deduce.Stats) uint64) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64)
			for ns, st := range s.mgr.DeduceStats() {
				out[ns] = float64(pick(st))
			}
			return out
		}
	}
	m.reg.CounterVecFunc("remp_deduce_hits_total",
		"Crowd questions answered by deduction from recorded answers instead of workers, by namespace.",
		"namespace", deduceVec(func(st deduce.Stats) uint64 { return st.Hits }))
	m.reg.CounterVecFunc("remp_deduce_clusters_total",
		"Match facts recorded from a namespace's answers, by namespace.",
		"namespace", deduceVec(func(st deduce.Stats) uint64 { return st.Unions }))
	m.reg.CounterVecFunc("remp_deduce_conflicts_total",
		"Contradictory facts rejected by the deduction store, by namespace.",
		"namespace", deduceVec(func(st deduce.Stats) uint64 { return st.Conflicts }))
}

// timedStore decorates a session.Store with a latency histogram over the
// durable write the serving path pays for: the per-answer log append.
// The timing lives here rather than in internal/session because the
// session packages are deterministic and never read the wall clock
// themselves.
type timedStore struct {
	session.Store
	clock  obs.Clock
	append *obs.Histogram
}

func (t *timedStore) AppendAnswer(id string, seq int, rec session.AnswerRec, done bool) error {
	t0 := t.clock()
	err := t.Store.AppendAnswer(id, seq, rec, done)
	t.append.ObserveNS(t.clock() - t0)
	return err
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps one /v1 handler with its pre-resolved per-route metrics
// and a structured request log line carrying a stable request ID.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.metrics.httpRequests.With(name)
	lat := s.metrics.httpLatency.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("r%d", s.reqID.Add(1))
		s.metrics.httpInFlight.Inc()
		t0 := s.metrics.clock()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := s.metrics.clock() - t0
		s.metrics.httpInFlight.Dec()
		reqs.Inc()
		lat.ObserveNS(d)
		s.log.Info("request",
			"req", rid, "method", r.Method, "route", name, "path", r.URL.Path,
			"status", sw.status, "dur_ms", float64(d)/1e6)
	}
}

// handleMetrics serves the registry as Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// discardHandler drops every record (slog.DiscardHandler needs go1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
