// Package repro is a from-scratch Go reproduction of "Crowdsourced
// Collective Entity Resolution with Relational Match Propagation" (Huang,
// Hu, Bao, Qu — ICDE 2020). The public API lives in package remp; the
// paper's pipeline, substrates, competitor baselines, synthetic datasets
// and experiment drivers live under internal/. The root package carries
// the benchmark suite (bench_test.go) that regenerates every table and
// figure of the paper's evaluation.
//
// The human–machine loop is asynchronous at heart — µ questions are
// posted to a crowd platform and the answers trickle back out of order —
// so the loop is implemented as a resumable state machine rather than a
// blocking call: a session (remp.NewSession, internal/session) publishes
// question batches via NextBatch, accepts answers via Deliver in any
// order, applies them in selection order so the result is byte-identical
// to the synchronous remp.Resolve, and snapshots its answer log as JSON
// so it survives process restarts. A session manager runs many sessions
// concurrently and shares answers across the sessions of one dataset, so
// the crowd never sees the same pair twice. The prepared pipeline is
// read-only — a loop starts from its own copy of the edge probabilities
// it will change — so any number of loops run over one. cmd/remp-server
// serves the whole lifecycle — create, batch, answers, result, snapshot,
// restore — over HTTP/JSON (internal/server), and examples/asynccrowd
// drives it end to end.
//
// The resolution pipeline shards by graph partition: propagation evidence
// is bounded to ζ-balls, so the candidate-pair graph's connected
// components (internal/partition) are binned into weight-balanced shards
// whose propagation engines, candidate gathering, question selection and
// re-estimation run concurrently under one global budget/µ-batch
// scheduler, with per-batch selections drawn across shards by expected
// benefit. Sharding is controlled by remp.Options.Shards: 0 (the
// default) picks a shard count automatically from the graph size — small
// graphs stay monolithic — 1 forces the monolithic pipeline, and an
// explicit count pins it. A sharded run resolves exactly the matches and
// non-matches of the unsharded one; it is faster because gathering and
// selection scope to the shards a batch touched, settled shards free
// their engines outright, and shard work fans out across cores.
// Re-estimation is incremental in every layer: new matches fold into
// per-label statistics the loop keeps, only labels whose evidence changed
// are re-fitted, only their rows are rewritten — in place — and only the
// ζ-balls that can see a rewritten edge are re-inferred. Session snapshots record the shard assignment and reject
// a restore against a differently partitioned pipeline.
//
// Inside a shard, the propagation hot path runs on flat storage: the
// probabilistic ER graph is compressed sparse row with precomputed
// −log-probability edge lengths and a mirrored in-CSR (removed edges
// zero their slot; post-build additions live in an overlay folded back
// in on full engine rebuilds), each Dijkstra worker reuses a pooled
// epoch-stamped dense scratch with an index-typed 4-ary heap, emitted
// inferred sets are sorted (index, distance) slices rather than maps,
// and Algorithm 3's benefit state shares the same dense epoch-stamped
// layout. A steady-state single-source run allocates nothing but its
// result; the InferAllFW oracle pins the representation to the paper's
// Floyd–Warshall output in randomized property tests. The benchmark
// trajectory lives in BENCH_remp.json — ns/op plus B/op and allocs/op,
// every benchmark reports allocations — regenerated by CI via
// cmd/benchreport and gated per metric against the committed
// BENCH_baseline.json.
//
// Sessions are durable. Every managed session journals into a pluggable
// store (remp.Store): a create record plus one append-only answer log.
// The in-memory backend (remp.NewMemStore) is the default; the disk
// backend (remp.NewDiskStore) fsyncs each accepted answer to the
// session's log file before it is acknowledged, so a remp-server with
// -store disk recovers every session under its original ID after a hard
// kill — remp.OpenManager replays each log through the same
// divergence-checking restore path client snapshots take and re-joins
// the namespace answer cache. Persistence is fail-stop: a dying disk
// freezes a session's durable state at the last consistent prefix while
// it keeps serving from memory. SIGTERM drains the server (in-flight
// requests finish, new ones get 503) and closes the store; /healthz
// stays 200 with a structured status while /readyz flips to 503 so load
// balancers stop routing. cmd/remp-loadgen load-tests a live server
// with N concurrent closed-loop sessions whose worker labels are a
// deterministic function of each pair, and verifies every final Result
// byte-matches the synchronous remp.Resolve oracle — including across a
// mid-run SIGKILL + restart (internal/loadgen's kill drill); its JSON
// report, with client-side p50/p95/p99 latency per API operation, is
// folded into BENCH_remp.json by cmd/benchreport.
//
// Telemetry is stdlib-only: internal/obs is an allocation-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms) that the
// server exposes at /metrics in Prometheus text format — per-loop-stage
// timing histograms, propagation-engine work counters, log append and
// fsync latencies, session/cache counters, per-route HTTP latency — and
// that cmd/remp-bench's shard experiment folds into BENCH_remp.json as
// per-stage nanoseconds. Observability bends to the invariants, not the
// other way around: the deterministic packages take time only through
// an injected monotonic obs.Clock (time.Now stays banned there by the
// determinism analyzer), and hot-path instrumentation is plain atomic
// increments, so //remp:hotpath functions stay allocation-free with
// metrics enabled. Structured logs go through log/slog; net/http/pprof
// and runtime/trace are a flag away (-debug-addr, -trace).
//
// These invariants are mechanically enforced: internal/lint implements
// four go/analysis-style analyzers — determinism (map-range order must
// not escape in the deterministic packages; no time.Now or globally
// seeded math/rand), hotpath (functions annotated //remp:hotpath and
// their in-module callees must not allocate, with returned-result and
// pooled-growth exemptions), waldurability (os.Rename requires
// File.Sync before and a directory fsync after; no file I/O under store
// mutexes), and indextypes (int32 CSR indices must not widen into int
// map keys or re-box into map[int]float64) — run by CI over the whole
// module via cmd/remp-lint, with no suppression mechanism.
package repro
