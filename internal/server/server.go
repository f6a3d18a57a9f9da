// Package server exposes resolution sessions over HTTP/JSON: the
// asynchronous face of the Remp pipeline. A crowd frontend creates a
// session, polls its question batches, posts worker answers as they
// arrive — in any order — and fetches the final result (with
// precision/recall/F1 when a gold standard is known). Snapshots move
// sessions across process restarts.
//
// Endpoints (all JSON):
//
//	POST   /v1/sessions            create a session (built-in dataset or inline TSV KBs)
//	GET    /v1/sessions            list live session IDs
//	GET    /v1/sessions/{id}       session status
//	GET    /v1/sessions/{id}/batch open questions awaiting answers
//	POST   /v1/sessions/{id}/answers deliver worker labels
//	GET    /v1/sessions/{id}/result  current (or final) result, with PRF
//	GET    /v1/sessions/{id}/snapshot durable session state
//	POST   /v1/sessions/restore    recreate a session from a snapshot
//	DELETE /v1/sessions/{id}       forget a session, releasing its questions
//	GET    /healthz                liveness: always 200 with uptime/session/store detail
//	GET    /readyz                 readiness: 503 once the server begins draining
//	GET    /metrics                Prometheus text exposition
//
// Sessions created from the same dataset share a answer cache, so two
// concurrent jobs over one dataset never post the same pair twice.
//
// A server opened over a disk store (Config.Store) journals every
// session: each accepted answer is fsync'd to the session's log before
// the HTTP response, and a server restarted over the same store recovers
// every session under its original ID. Shutdown drains in-flight
// requests — later requests are refused with 503 — and closes the store.
//
// A server configured with Config.Cluster.Workers runs in cluster mode: every
// session's shard engines are placed on remp-worker processes through an
// internal/cluster coordinator, with heartbeat liveness and crash
// failover. The workers are sent the shards themselves, cut from the
// pipeline the server prepared, so clustered sessions — including ones
// recovered from the store — resolve byte-identically to local ones.
//
// Whatever a spec determines before the first question — dataset load and
// the whole pre-pipeline — is built once per spec and shared through the
// server's PlanCache.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/session"
	"repro/remp"
)

// OptionsDTO is a create request's options, in remp.Options' JSON form.
// A server-wide default applies when Shards is omitted.
type OptionsDTO = remp.Options

// CreateRequest describes the dataset and options of a new session:
// either a built-in dataset by name, or a pair of inline TSV KBs (the
// cmd/datagen format) with an optional gold standard for evaluation.
// ClientRef, when set, makes creation idempotent: a retried create with
// the same ref returns the already-created session instead of a new one
// — essential for clients that must retry a create whose response was
// lost to a crash (the load generator). Refs survive restarts (they are
// part of the persisted spec) but are best-effort under concurrent
// same-ref creates, which clients are expected not to issue.
type CreateRequest struct {
	Dataset   string      `json:"dataset,omitempty"`
	Seed      int64       `json:"seed,omitempty"`
	KB1TSV    string      `json:"kb1_tsv,omitempty"`
	KB2TSV    string      `json:"kb2_tsv,omitempty"`
	Gold      [][2]string `json:"gold,omitempty"`
	ClientRef string      `json:"client_ref,omitempty"`
	Options   OptionsDTO  `json:"options"`
}

// QuestionDTO is one published question, with entity names for display.
type QuestionDTO struct {
	ID    string `json:"id"`
	Left  string `json:"left"`
	Right string `json:"right"`
}

// AnswerDTO is the crowd's labels for one question.
type AnswerDTO struct {
	ID     string       `json:"id"`
	Labels []remp.Label `json:"labels"`
}

// AnswersRequest is the body of POST /v1/sessions/{id}/answers.
type AnswersRequest struct {
	Answers []AnswerDTO `json:"answers"`
}

// RejectedAnswerDTO reports one answer the session could not apply.
type RejectedAnswerDTO struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// AnswersResponse is the body of POST /v1/sessions/{id}/answers: the
// refreshed session status plus a per-answer outcome. Answers are applied
// independently, so retrying a request whose answers were already
// delivered is safe — the duplicates come back in Rejected while the
// session state is untouched.
type AnswersResponse struct {
	SessionInfo
	Accepted int                 `json:"accepted"`
	Rejected []RejectedAnswerDTO `json:"rejected,omitempty"`
}

// SessionInfo is the session status envelope most endpoints return.
type SessionInfo struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Questions int           `json:"questions"`
	Deduced   int           `json:"deduced,omitempty"`
	Loops     int           `json:"loops"`
	Shards    int           `json:"shards,omitempty"`
	Batch     []QuestionDTO `json:"batch,omitempty"`
}

// PRFDTO is precision / recall / F1 against the session's gold standard;
// its TP, FP and FN counts stay off the wire.
type PRFDTO = pair.PRF

// ResultDTO is the body of GET /v1/sessions/{id}/result.
type ResultDTO struct {
	Done              bool        `json:"done"`
	Questions         int         `json:"questions"`
	Deduced           int         `json:"deduced,omitempty"`
	Loops             int         `json:"loops"`
	Matches           [][2]string `json:"matches"`
	Confirmed         int         `json:"confirmed"`
	Propagated        int         `json:"propagated"`
	IsolatedPredicted int         `json:"isolated_predicted"`
	NonMatches        int         `json:"non_matches"`
	PRF               *PRFDTO     `json:"prf,omitempty"`
}

// SnapshotDTO bundles a session snapshot with the create spec needed to
// re-prepare its pipeline on restore.
type SnapshotDTO struct {
	Create  CreateRequest   `json:"create"`
	Session json.RawMessage `json:"session"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Server serves resolution sessions over HTTP. The Manager's table is
// the one table of served sessions: a session is served exactly while the
// Manager holds it, its create spec is its Meta, and its plan is the one
// whose pipeline it runs over. Each session holds its plan from its
// admission until the DELETE that Manager.Remove hands it back to.
type Server struct {
	mgr           *session.Manager
	plans         *PlanCache
	mu            sync.Mutex
	refs          map[string]string // CreateRequest.ClientRef → session ID
	log           *slog.Logger
	metrics       *serverMetrics
	reqID         atomic.Int64
	defaultShards int
	storeKind     string
	cluster       *cluster.Coordinator // nil when not clustered
	draining      atomic.Bool
	// drainMu is the in-flight barrier: every gated request holds a read
	// lock for its whole lifetime; Shutdown takes the write lock once
	// draining is set, which blocks until the in-flight requests finish.
	// (A WaitGroup is off the table: Add racing Wait at counter zero is
	// documented misuse and panics.)
	drainMu sync.RWMutex
}

// Config configures a Server.
type Config struct {
	// Logger is the structured logger for request and session events;
	// nil disables logging.
	Logger *slog.Logger
	// Store is the session store the server journals into and recovers
	// from; nil selects the in-memory store (no durability).
	Store session.Store
	// DefaultShards is the shard count applied to sessions whose create
	// request does not specify one (0 keeps automatic sharding; negative is
	// a configuration error).
	DefaultShards int
	// Cluster, when it names Workers, puts the server in cluster mode:
	// shard engines run on the remp-worker processes at those addresses
	// instead of in this process. Faults injects failures into the
	// coordinator's outgoing request frames (the -chaos drill), and zero
	// timing fields keep the coordinator defaults. Metrics and Logf are
	// ignored: the server wires its own.
	Cluster cluster.CoordinatorConfig
}

// New returns a server over an in-memory store, with logging disabled.
func New() *Server {
	srv, _, err := NewServer(Config{})
	if err != nil {
		panic(err) // unreachable: an empty in-memory store cannot fail recovery
	}
	return srv
}

// NewServer opens a server over cfg.Store and recovers every session a
// previous process left in it, returning the recovered session IDs. A
// session that fails to recover is skipped and reported in the error
// while the server comes up with the rest; a configuration error returns
// no server.
func NewServer(cfg Config) (*Server, []string, error) {
	if cfg.DefaultShards < 0 {
		return nil, nil, fmt.Errorf("server: DefaultShards = %d is negative: the default shard count must be 0 (automatic) or positive", cfg.DefaultShards)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	store := cfg.Store
	kind := "disk"
	if store == nil {
		store = session.NewMemStore()
	}
	if _, ok := store.(*session.MemStore); ok {
		kind = "mem"
	}
	metrics := newServerMetrics()
	// The disk store's log fsync is timed inside AppendAnswer (the store
	// never reads the wall clock itself — the monotonic clock is injected
	// here); the decorator below times the full append.
	if ds, ok := store.(*session.DiskStore); ok {
		ds.InstrumentFsync(metrics.clock, metrics.storeFsync)
	}
	store = &timedStore{Store: store, clock: metrics.clock, append: metrics.storeAppend}
	// The coordinator must exist before recovery below: recovered
	// sessions' pipelines place their shards on workers too.
	var co *cluster.Coordinator
	if len(cfg.Cluster.Workers) > 0 {
		cc := cfg.Cluster
		cc.Metrics = metrics.cluster
		cc.Logf = func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
		var cerr error
		if co, cerr = cluster.NewCoordinator(cc); cerr != nil {
			return nil, nil, cerr
		}
	}
	s := &Server{
		refs:          make(map[string]string),
		log:           logger,
		metrics:       metrics,
		defaultShards: cfg.DefaultShards,
		storeKind:     kind,
		cluster:       co,
	}
	s.mgr = session.NewManagerStore(store)
	s.plans = NewPlanCache(func(ds remp.Dataset, opts remp.Options) (*core.Prepared, error) {
		return remp.PreparePipelineWith(ds, opts, metrics.pipe)
	}, metrics.reg)
	if co != nil {
		s.plans.runner = co.Runner
	}
	metrics.bindManager(s)
	// Recovery opens each stored session's plan from the CreateRequest
	// persisted as its meta blob. Server defaults were baked in before it
	// was stored, so it keys the plan the session was created over.
	opened := make(map[string]*plan)
	recovered, err := s.mgr.Recover(func(id string, meta []byte) (*core.Prepared, string, error) {
		var req CreateRequest
		if err := json.Unmarshal(meta, &req); err != nil {
			return nil, "", fmt.Errorf("stored spec: %w", err)
		}
		pl, err := s.open(req)
		if err != nil {
			return nil, "", fmt.Errorf("stored spec: %w", err)
		}
		opened[id] = pl
		return pl.prepared, pl.namespace, nil
	})
	for _, id := range recovered {
		delete(opened, id) // the recovered session holds its plan
		sess, _ := s.mgr.Get(id)
		s.addRef(clientRef(sess), id)
	}
	for _, id := range slices.Sorted(maps.Keys(opened)) {
		s.plans.release(opened[id]) // the plan opened, the replay over it failed
	}
	metrics.sessionsRecovered.Add(int64(len(recovered)))
	if len(recovered) > 0 {
		logger.Info("recovered sessions from store",
			"store", kind, "count", len(recovered), "wal_replayed", s.mgr.WALReplayed(),
			"ids", strings.Join(recovered, ","))
	}
	if err != nil {
		logger.Warn("recovery errors", "err", err)
	}
	return s, recovered, err
}

// WALReplayed returns how many answers startup recovery re-delivered
// from session logs.
func (s *Server) WALReplayed() int64 { return s.mgr.WALReplayed() }

// open holds the plan of a create spec on a new session's behalf. The
// plan cache's key is the spec without its ClientRef, which names the
// session, not the pipeline.
func (s *Server) open(req CreateRequest) (*plan, error) {
	req.ClientRef = ""
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return s.plans.acquire(spec)
}

// clientRef returns the client_ref of the create spec a session was
// admitted with, reading that one field of its meta.
func clientRef(sess *session.Session) string {
	var spec struct {
		ClientRef string `json:"client_ref"`
	}
	_ = json.Unmarshal(sess.Meta(), &spec) // admit's own encoding of the spec
	return spec.ClientRef
}

// addRef points a client ref at session id while the Manager still holds
// it. The check and the write share s.mu with handleDelete's unlinking,
// which follows its Manager.Remove: a DELETE that took the session out
// first leaves no ref behind, and one that comes later unlinks it.
func (s *Server) addRef(ref, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.mgr.Get(id); live && ref != "" {
		s.refs[ref] = id
	}
}

// Shutdown drains the server: in-flight requests finish (bounded by
// ctx), later requests are refused with 503, and the store is closed —
// every acknowledged answer is already durable in its session's log.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		// The write lock is a pure barrier: it is granted only once every
		// request that entered before the drain flag flipped has finished.
		s.drainMu.Lock()
		s.drainMu.Unlock() //nolint:staticcheck // empty critical section is the point
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Warn("shutdown: giving up on in-flight requests", "err", ctx.Err())
	}
	err := s.mgr.Close()
	if s.cluster != nil {
		// After mgr.Close every session's runner is closed, so the
		// coordinator only has heartbeats and idle connections left.
		s.cluster.Close()
	}
	s.log.Info("shutdown: store closed")
	return err
}

// Handler returns the HTTP handler for all endpoints. /v1 routes are
// gated on the drain flag: once Shutdown begins they answer 503 with a
// Retry-After header while requests already in flight run to
// completion.
func (s *Server) Handler() http.Handler {
	// route resolves each route's metric children here, once; the per-
	// request path then only pays atomic increments and one log line.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.route("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.route("list", s.handleList))
	mux.HandleFunc("POST /v1/sessions/restore", s.route("restore", s.handleRestore))
	mux.HandleFunc("GET /v1/sessions/{id}", s.route("status", s.handleInfo(false)))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.route("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/sessions/{id}/batch", s.route("batch", s.handleInfo(true)))
	mux.HandleFunc("POST /v1/sessions/{id}/answers", s.route("answers", s.handleAnswers))
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.route("result", s.handleResult))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.route("snapshot", s.handleSnapshot))

	root := http.NewServeMux()
	root.Handle("/v1/", s.gate(mux))
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	return root
}

// gate refuses gated requests once the server is draining and tracks
// in-flight ones so Shutdown can wait for them.
func (s *Server) gate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fast path first, without touching the mutex: once draining is
		// set, Shutdown's pending write lock would make RLock block new
		// requests behind the slowest in-flight one instead of refusing
		// them promptly.
		if s.draining.Load() {
			refuseDraining(w)
			return
		}
		// Register (read lock), then re-check: a request that slipped
		// past a concurrent Shutdown either sees the flag here and is
		// refused, or finishes before the barrier falls and the store
		// closes.
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		if s.draining.Load() {
			refuseDraining(w)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// handleHealthz reports liveness: always 200 while the process serves,
// with structured detail — uptime, live session count, drain state,
// store backend, the plan cache's size, persistence failures and
// wal_replayed, the answers re-delivered at startup recovery. A draining
// server is still alive; readiness is /readyz's job. persist_failures
// counts sessions whose log append has failed since startup — non-zero
// means some session's durable state is stale.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status":           status,
		"uptime_seconds":   float64(s.metrics.clock()) / 1e9,
		"store":            s.storeKind,
		"sessions_active":  len(s.mgr.IDs()),
		"draining":         s.draining.Load(),
		"persist_failures": s.mgr.PersistFailures(),
		"wal_replayed":     s.mgr.WALReplayed(),
		"plan_cache":       map[string]any{"entries": s.plans.entries(), "resident_bytes": s.plans.resident.Value()},
	}
	if s.cluster != nil {
		body["cluster"] = map[string]any{
			"workers":      s.cluster.Status(),
			"workers_live": s.cluster.LiveWorkers(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz reports readiness: 200 while accepting new work, 503 once
// Shutdown has begun draining (load balancers should stop routing here).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// loadSpec materializes the dataset of a create spec into pl: KBs,
// optional gold, and the cache namespace shared by sessions over the same
// data.
func loadSpec(req CreateRequest, pl *plan) error {
	switch {
	case req.Dataset != "":
		d, err := datasets.ByName(req.Dataset, req.Seed)
		if err != nil {
			return fmt.Errorf("unknown dataset %q (built-ins: %s)", req.Dataset, strings.Join(datasets.Names(), ", "))
		}
		pl.ds, pl.gold = remp.Dataset{K1: d.K1, K2: d.K2}, d.Gold
		pl.namespace = fmt.Sprintf("builtin:%s:%d", req.Dataset, req.Seed)
	case req.KB1TSV != "" && req.KB2TSV != "":
		k1, err := kb.ReadTSV(strings.NewReader(req.KB1TSV))
		if err != nil {
			return fmt.Errorf("kb1_tsv: %v", err)
		}
		k2, err := kb.ReadTSV(strings.NewReader(req.KB2TSV))
		if err != nil {
			return fmt.Errorf("kb2_tsv: %v", err)
		}
		if len(req.Gold) > 0 {
			matches := make([]remp.Pair, 0, len(req.Gold))
			for i, g := range req.Gold {
				u1, u2 := k1.Entity(g[0]), k2.Entity(g[1])
				if u1 == kb.NoEntity || u2 == kb.NoEntity {
					return fmt.Errorf("gold[%d]: unknown entity in %q / %q", i, g[0], g[1])
				}
				matches = append(matches, remp.Pair{U1: u1, U2: u2})
			}
			pl.gold = remp.NewGold(matches)
		}
		h := sha256.New()
		h.Write([]byte(req.KB1TSV))
		h.Write([]byte{0})
		h.Write([]byte(req.KB2TSV))
		pl.ds = remp.Dataset{K1: k1, K2: k2}
		pl.namespace = "inline:" + hex.EncodeToString(h.Sum(nil)[:12])
	default:
		return errors.New("either dataset or both kb1_tsv and kb2_tsv are required")
	}
	return nil
}

// maxBodyBytes caps every POST body the server decodes. Inline TSV KBs
// are the only large payload; anything bigger belongs in a built-in or
// snapshot-loaded dataset, not in a request.
const maxBodyBytes = 8 << 20

// decodeBody reads a request's JSON body into v, answering 413 for a
// body over maxBodyBytes and 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "malformed %s: %v", what, err)
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, "request", &req) {
		return
	}
	// An idempotent retry: hand back the session the ref already created.
	if req.ClientRef != "" {
		s.mu.Lock()
		id := s.refs[req.ClientRef]
		s.mu.Unlock()
		if sess, ok := s.mgr.Get(id); ok {
			s.log.Info("create with known client_ref: returning its session", "client_ref", req.ClientRef, "session", id)
			writeJSON(w, http.StatusOK, s.info(sess, true))
			return
		}
	}
	s.admit(w, req, "created", s.metrics.sessionsCreated, func(pl *plan, meta []byte) (*session.Session, error) {
		return s.mgr.Create(pl.prepared, pl.namespace, meta)
	})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var dto SnapshotDTO
	if !decodeBody(w, r, "snapshot", &dto) {
		return
	}
	s.admit(w, dto.Create, "restored", s.metrics.sessionsRestored, func(pl *plan, meta []byte) (*session.Session, error) {
		snap, err := session.DecodeSnapshot(dto.Session)
		if err != nil {
			return nil, err
		}
		return s.mgr.Restore(pl.prepared, pl.namespace, meta, snap)
	})
}

// admit is the path create and restore share: hold the spec's plan, start
// the session over it with the spec as its stored meta, record its client
// ref and answer 201. The session keeps the hold until its DELETE.
func (s *Server) admit(w http.ResponseWriter, req CreateRequest, verb string, count *obs.Counter,
	start func(pl *plan, meta []byte) (*session.Session, error)) {
	// Bake the server-side defaults into the stored spec so a restart
	// with different flags recovers the session under the options it
	// actually ran with.
	if req.Options.Shards == 0 {
		req.Options.Shards = s.defaultShards
	}
	meta, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pl, err := s.open(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := start(pl, meta)
	if err != nil {
		s.plans.release(pl)
		// An ID collision is a genuine conflict, a persistence failure
		// (full disk, bad data dir) is the server's fault and a shard runner
		// that would not start is its cluster's; invalid options and
		// malformed or diverging snapshots are client errors.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, session.ErrSessionExists):
			status = http.StatusConflict
		case errors.Is(err, session.ErrPersist):
			status = http.StatusInternalServerError
		case errors.Is(err, session.ErrRunner):
			status = http.StatusBadGateway
		}
		writeError(w, status, "%v", err)
		return
	}
	s.addRef(req.ClientRef, sess.ID())
	count.Inc()
	s.log.Info("session "+verb, "session", sess.ID(), "namespace", pl.namespace)
	writeJSON(w, http.StatusCreated, s.info(sess, true))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": s.mgr.IDs()})
}

// lookup resolves the {id} path segment to a served session.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", id)
	}
	return sess, ok
}

// handleInfo serves a session's status envelope: with its open batch for
// GET /batch, without it for the plain status.
func (s *Server) handleInfo(withBatch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sess, ok := s.lookup(w, r); ok {
			writeJSON(w, http.StatusOK, s.info(sess, withBatch))
		}
	}
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req AnswersRequest
	if !decodeBody(w, r, "request", &req) {
		return
	}
	if len(req.Answers) == 0 {
		writeError(w, http.StatusBadRequest, "no answers in request")
		return
	}
	// Answers are applied independently so a retried or partially
	// duplicate request cannot fail answers that still fit: each
	// rejection (duplicate, no longer open, malformed, labelless) is
	// reported per answer instead of aborting the batch.
	resp := AnswersResponse{}
	for _, a := range req.Answers {
		if err := sess.Deliver(a.ID, a.Labels); err != nil {
			resp.Rejected = append(resp.Rejected, RejectedAnswerDTO{ID: a.ID, Error: err.Error()})
			continue
		}
		resp.Accepted++
	}
	s.metrics.answersAccepted.Add(int64(resp.Accepted))
	s.metrics.answersRejected.Add(int64(len(resp.Rejected)))
	s.log.Info("answers delivered", "session", sess.ID(), "accepted", resp.Accepted, "rejected", len(resp.Rejected))
	resp.SessionInfo = s.info(sess, true)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	p, pl := sess.Prepared(), s.plans.of(sess.Prepared())
	if pl == nil { // deleted since the lookup, and its plan evicted since
		writeError(w, http.StatusNotFound, "no session %q", sess.ID())
		return
	}
	res := sess.Result()
	dto := ResultDTO{
		Done:              sess.Done(),
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
		Matches:           make([][2]string, 0, len(res.Matches)),
		Confirmed:         len(res.Confirmed),
		Propagated:        len(res.Propagated),
		IsolatedPredicted: len(res.IsolatedPredicted),
		NonMatches:        len(res.NonMatches),
	}
	for _, m := range res.Matches.Sorted() {
		dto.Matches = append(dto.Matches, [2]string{p.K1.EntityName(m.U1), p.K2.EntityName(m.U2)})
	}
	if pl.gold != nil {
		prf := pair.Evaluate(res.Matches, pl.gold)
		dto.PRF = &prf
	}
	writeJSON(w, http.StatusOK, dto)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := sess.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	dto := SnapshotDTO{Session: data}
	_ = json.Unmarshal(sess.Meta(), &dto.Create) // admit's own encoding of the spec
	writeJSON(w, http.StatusOK, dto)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	// No liveness lookup first: Remove also purges dormant store records
	// (sessions whose recovery failed), which have no live session.
	id := r.PathValue("id")
	sess, removed, err := s.mgr.Remove(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !removed {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	if sess != nil { // nil: a dormant store record, which held no plan
		ref := clientRef(sess)
		s.mu.Lock()
		if s.refs[ref] == id {
			delete(s.refs, ref)
		}
		s.mu.Unlock()
		s.plans.release(s.plans.of(sess.Prepared()))
	}
	s.metrics.sessionsDeleted.Inc()
	s.log.Info("session deleted", "session", id)
	w.WriteHeader(http.StatusNoContent)
}

// info builds the status envelope, optionally materializing the open
// batch (which may auto-answer questions from the shared cache).
func (s *Server) info(sess *session.Session, withBatch bool) SessionInfo {
	var batch []QuestionDTO
	if withBatch {
		p := sess.Prepared()
		for _, q := range sess.NextBatch() {
			batch = append(batch, QuestionDTO{ID: q.ID, Left: p.K1.EntityName(q.Pair.U1), Right: p.K2.EntityName(q.Pair.U2)})
		}
	}
	questions, loops := sess.Progress()
	return SessionInfo{
		ID:        sess.ID(),
		State:     string(sess.State()),
		Questions: questions,
		Deduced:   sess.Deduced(),
		Loops:     loops,
		Shards:    sess.Shards(),
		Batch:     batch,
	}
}
