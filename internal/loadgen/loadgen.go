// Package loadgen is the deterministic load-generation harness for the
// remp-server session API: N concurrent closed-loop clients, each
// driving one resolution session end to end — create, poll the question
// batch, answer with configurable latency, reordering and worker error,
// repeat until done — and each verifying that the session's final
// Result is byte-identical to the synchronous remp.Resolve oracle
// computed in process.
//
// Determinism is the load the harness is built around: worker labels
// are a pure function of the entity pair (a seeded hash picks which
// workers err), so every session over the same dataset receives the
// same labels per pair no matter which session asked first, which
// answers were served from the shared cross-session cache, or how a
// server restart interleaved with delivery. That is what makes the
// oracle comparison exact under full concurrency — and what makes the
// harness a crash-recovery test: transport failures are retried until
// RetryTimeout, so a server that is killed and restarted mid-run (with
// a disk store) must still bring every session to the oracle result.
package loadgen

import (
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Sessions is the number of concurrent sessions to drive.
	Sessions int
	// Dataset is a built-in dataset name (datasets.ByName); DatasetSeed
	// seeds its generator. All sessions share the dataset (and therefore
	// the server's cross-session answer cache).
	Dataset     string
	DatasetSeed int64
	// Options configures every session's pipeline.
	Options server.OptionsDTO
	// Workers is how many simulated workers label each question
	// (default 3); WorkerQuality is the λ each label reports (default
	// 0.95); WorkerError is the probability a worker's label is flipped,
	// decided deterministically per (pair, worker).
	Workers       int
	WorkerQuality float64
	WorkerError   float64
	// Seed drives the per-session latency and reordering schedules.
	Seed int64
	// MinLatency/MaxLatency bound the simulated crowd think time per
	// answer; Reorder is the probability a batch is answered in a random
	// order rather than selection order.
	MinLatency, MaxLatency time.Duration
	Reorder                float64
	// PollInterval is how long a session waits before re-polling an
	// empty batch (every open question in flight elsewhere). Default
	// 20ms.
	PollInterval time.Duration
	// RetryTimeout is the continuous-transport-failure budget: how long
	// a client keeps retrying an unreachable server (spanning a kill +
	// restart) before giving up. Default 30s.
	RetryTimeout time.Duration
	// Deadline bounds the whole run (0 = none).
	Deadline time.Duration
	// Progress, when set, is called after every accepted post with the
	// cumulative answer count (used by tests to trigger a mid-run kill).
	Progress func(answers int64)
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

// SessionOutcome is the per-session verdict.
type SessionOutcome struct {
	ID        string `json:"id"`
	Questions int    `json:"questions"`
	Loops     int    `json:"loops"`
	// Match is true when the session's final result is byte-identical
	// to the synchronous oracle's.
	Match bool   `json:"match"`
	Error string `json:"error,omitempty"`
}

// LatencyStats summarizes the client-observed latency of one API
// operation across the whole run: create, batch, answers, result.
// Samples are wall time around the retrying call, so a killed-and-
// restarted server shows up as a fat tail here, not as missing data.
type LatencyStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Oracle summarizes the synchronous remp.Resolve reference run.
type Oracle struct {
	Matches   int `json:"matches"`
	Questions int `json:"questions"`
	Deduced   int `json:"deduced,omitempty"`
	Loops     int `json:"loops"`
}

// Report is the run summary, written as JSON by cmd/remp-loadgen.
type Report struct {
	Dataset         string  `json:"dataset"`
	Sessions        int     `json:"sessions"`
	Completed       int     `json:"completed"`
	ResultsMatch    bool    `json:"results_match"`
	Answers         int64   `json:"answers"`
	Rejected        int64   `json:"rejected"`
	Retries         int64   `json:"retries"`
	DurationSeconds float64 `json:"duration_seconds"`
	AnswersPerSec   float64 `json:"answers_per_second"`
	Oracle          Oracle  `json:"oracle"`
	// Latency holds client-side percentiles per operation, keyed by
	// "create" / "batch" / "answers" / "result".
	Latency  map[string]LatencyStats `json:"latency,omitempty"`
	Outcomes []SessionOutcome        `json:"outcomes"`
}

// runner is the shared state of one load run.
type runner struct {
	cfg      Config
	ref      string // client_ref prefix, unique to this run
	ds       *datasets.Dataset
	oracle   []byte // canonical JSON of the reference result
	oraclePR Oracle
	deadline time.Time
	answers  atomic.Int64
	rejected atomic.Int64
	retries  atomic.Int64

	latMu sync.Mutex
	lat   map[string][]float64 // op → latency samples, milliseconds
}

// observe records one successful operation's client-observed latency.
func (r *runner) observe(op string, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	r.latMu.Lock()
	r.lat[op] = append(r.lat[op], ms)
	r.latMu.Unlock()
}

// timed wraps retry with a latency sample per successful call.
func timed[T any](r *runner, op string, f func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := retry(r, f)
	if err == nil {
		r.observe(op, time.Since(t0))
	}
	return v, err
}

// percentile returns the p-quantile (0 < p <= 1) of ascending samples
// by the nearest-rank method — p99 of 100 samples is the 99th.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencyStats folds the collected samples into per-op percentiles.
func (r *runner) latencyStats() map[string]LatencyStats {
	r.latMu.Lock()
	defer r.latMu.Unlock()
	if len(r.lat) == 0 {
		return nil
	}
	out := make(map[string]LatencyStats, len(r.lat))
	for op, samples := range r.lat {
		sort.Float64s(samples)
		out[op] = LatencyStats{
			Count: len(samples),
			P50Ms: percentile(samples, 0.50),
			P95Ms: percentile(samples, 0.95),
			P99Ms: percentile(samples, 0.99),
			MaxMs: samples[len(samples)-1],
		}
	}
	return out
}

// Run executes one load run. It returns an error only when the harness
// itself cannot run (unknown dataset, oracle failure); per-session
// failures are reported in the Report.
func Run(cfg Config) (*Report, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.WorkerQuality <= 0 || cfg.WorkerQuality > 1 {
		cfg.WorkerQuality = 0.95
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ds, err := datasets.ByName(cfg.Dataset, cfg.DatasetSeed)
	if err != nil {
		return nil, err
	}
	// One nonce per run in every client ref: a second run with the same
	// Config against the same server must create sessions of its own, not
	// get the first run's finished ones back.
	var nonce [8]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("loadgen: drawing the run nonce: %w", err)
	}
	r := &runner{cfg: cfg, ds: ds, ref: fmt.Sprintf("loadgen-%d-%x", cfg.Seed, nonce), lat: make(map[string][]float64)}
	if cfg.Deadline > 0 {
		r.deadline = time.Now().Add(cfg.Deadline)
	}

	// The synchronous oracle: remp.Resolve over the same dataset and
	// options, answered by the same deterministic label function every
	// session uses. Byte-equality against its canonical result is the
	// acceptance bar for every session.
	res, err := remp.Resolve(
		remp.Dataset{K1: ds.K1, K2: ds.K2},
		&oracleAsker{r: r},
		cfg.Options,
	)
	if err != nil {
		return nil, fmt.Errorf("loadgen: synchronous oracle failed: %w", err)
	}
	r.oracle = canonicalResult(ds, res)
	r.oraclePR = Oracle{Matches: len(res.Matches), Questions: res.Questions, Deduced: res.Deduced, Loops: res.Loops}
	cfg.Logf("oracle: %d matches, %d questions (%d deduced), %d loops", len(res.Matches), res.Questions, res.Deduced, res.Loops)

	start := time.Now()
	outcomes := make([]SessionOutcome, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = r.drive(i)
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)

	report := &Report{
		Dataset:         cfg.Dataset,
		Sessions:        cfg.Sessions,
		ResultsMatch:    true,
		Answers:         r.answers.Load(),
		Rejected:        r.rejected.Load(),
		Retries:         r.retries.Load(),
		DurationSeconds: dur.Seconds(),
		Oracle:          r.oraclePR,
		Latency:         r.latencyStats(),
		Outcomes:        outcomes,
	}
	if dur > 0 {
		report.AnswersPerSec = float64(report.Answers) / dur.Seconds()
	}
	for _, o := range outcomes {
		if o.Error == "" {
			report.Completed++
		}
		if !o.Match {
			report.ResultsMatch = false
		}
	}
	return report, nil
}

// labels computes the deterministic worker labels for one pair: a
// seeded FNV hash per (pair, worker) decides which workers err, so the
// labels depend on nothing but the question.
func (r *runner) labels(q pair.Pair) []remp.Label {
	out := make([]remp.Label, r.cfg.Workers)
	truth := r.ds.Gold.IsMatch(q)
	for w := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%d|%d", r.cfg.Seed, q.U1, q.U2, w)
		u := float64(h.Sum64()%1e9) / 1e9
		ans := truth
		if u < r.cfg.WorkerError {
			ans = !truth
		}
		out[w] = remp.Label{WorkerID: w, Quality: r.cfg.WorkerQuality, IsMatch: ans}
	}
	return out
}

// oracleAsker adapts the deterministic label function to the blocking
// Asker interface remp.Resolve drives.
type oracleAsker struct {
	r *runner
	n int
}

func (a *oracleAsker) Ask(q pair.Pair) []crowd.Label {
	a.n++
	return a.r.labels(q)
}

func (a *oracleAsker) NumQuestions() int { return a.n }

// canonicalResult renders a resolution result in the exact shape the
// server's /result endpoint serves, marshaled to JSON for byte
// comparison.
func canonicalResult(ds *datasets.Dataset, res *remp.Result) []byte {
	dto := server.ResultDTO{
		Done:              true,
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
		Matches:           make([][2]string, 0, len(res.Matches)),
		Confirmed:         len(res.Confirmed),
		Propagated:        len(res.Propagated),
		IsolatedPredicted: len(res.IsolatedPredicted),
		NonMatches:        len(res.NonMatches),
	}
	for _, m := range pair.Set(res.Matches).Sorted() {
		dto.Matches = append(dto.Matches, [2]string{ds.K1.EntityName(m.U1), ds.K2.EntityName(m.U2)})
	}
	prf := remp.Evaluate(res.Matches, ds.Gold)
	dto.PRF = &prf
	data, err := json.Marshal(dto)
	if err != nil {
		panic(err) // the DTO is plain data; marshaling cannot fail
	}
	return data
}

// canonicalDTO re-marshals a fetched result for comparison against the
// oracle bytes.
func canonicalDTO(dto *server.ResultDTO) []byte {
	if dto.Matches == nil {
		dto.Matches = [][2]string{}
	}
	data, err := json.Marshal(dto)
	if err != nil {
		panic(err)
	}
	return data
}

// drive runs one closed-loop session to completion.
func (r *runner) drive(i int) SessionOutcome {
	cfg := r.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 1000003*int64(i+1)))
	client := server.NewClient(cfg.BaseURL)
	client.HTTP = &http.Client{Timeout: 2 * time.Minute}

	var out SessionOutcome
	// The client ref makes the create idempotent: a retried create whose
	// first attempt was acknowledged server-side but lost to a crash
	// returns the same session instead of spawning an orphan. Retries keep
	// the ref; another run's refs differ in their nonce.
	info, err := timed(r, "create", func() (*server.SessionInfo, error) {
		return client.CreateSession(server.CreateRequest{
			Dataset:   cfg.Dataset,
			Seed:      cfg.DatasetSeed,
			ClientRef: fmt.Sprintf("%s-%03d", r.ref, i),
			Options:   cfg.Options,
		})
	})
	if err != nil {
		out.Error = fmt.Sprintf("create: %v", err)
		return out
	}
	out.ID = info.ID

	for info.State != string(remp.SessionDone) {
		if r.expired() {
			out.Error = "deadline exceeded"
			return out
		}
		if len(info.Batch) == 0 {
			// Every open question is reserved by a sibling session; poll
			// until their answers land in the shared cache.
			time.Sleep(cfg.PollInterval)
			info, err = timed(r, "batch", func() (*server.SessionInfo, error) { return client.Batch(out.ID) })
			if err != nil {
				out.Error = fmt.Sprintf("batch: %v", err)
				return out
			}
			continue
		}
		batch := info.Batch
		if rng.Float64() < cfg.Reorder {
			rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		}
		for _, q := range batch {
			r.think(rng)
			p, perr := session.ParseQuestionID(q.ID)
			if perr != nil {
				out.Error = fmt.Sprintf("question %q: %v", q.ID, perr)
				return out
			}
			answer := server.AnswerDTO{ID: q.ID, Labels: r.labels(p)}
			resp, err := timed(r, "answers", func() (*server.AnswersResponse, error) {
				return client.PostAnswers(out.ID, []server.AnswerDTO{answer})
			})
			if err != nil {
				out.Error = fmt.Sprintf("answers: %v", err)
				return out
			}
			// Rejections are expected after a retried post whose first
			// attempt was applied before the crash: duplicates are safe.
			r.answers.Add(int64(resp.Accepted))
			r.rejected.Add(int64(len(resp.Rejected)))
			if cfg.Progress != nil && resp.Accepted > 0 {
				cfg.Progress(r.answers.Load())
			}
			info = &resp.SessionInfo
			if info.State == string(remp.SessionDone) {
				break
			}
		}
	}

	res, err := timed(r, "result", func() (*server.ResultDTO, error) { return client.Result(out.ID) })
	if err != nil {
		out.Error = fmt.Sprintf("result: %v", err)
		return out
	}
	out.Questions, out.Loops = res.Questions, res.Loops
	got := canonicalDTO(res)
	out.Match = string(got) == string(r.oracle)
	if !out.Match {
		r.cfg.Logf("session %s diverged from oracle:\n  got  %s\n  want %s", out.ID, got, r.oracle)
	}
	return out
}

// think sleeps the configured per-answer latency.
func (r *runner) think(rng *rand.Rand) {
	if r.cfg.MaxLatency <= 0 {
		return
	}
	d := r.cfg.MinLatency
	if span := r.cfg.MaxLatency - r.cfg.MinLatency; span > 0 {
		d += time.Duration(rng.Int63n(int64(span)))
	}
	time.Sleep(d)
}

func (r *runner) expired() bool {
	return !r.deadline.IsZero() && time.Now().After(r.deadline)
}

// retry runs op, retrying transport-level failures — the server being
// killed, restarted, or not yet listening — until RetryTimeout of
// continuous failure. API-level errors (HTTP status) are returned
// immediately.
func retry[T any](r *runner, op func() (T, error)) (T, error) {
	var zero T
	var lastErr error
	downSince := time.Time{}
	for {
		v, err := op()
		if err == nil {
			return v, nil
		}
		if !isTransient(err) {
			return zero, err
		}
		r.retries.Add(1)
		if downSince.IsZero() {
			downSince = time.Now()
			r.cfg.Logf("server unreachable (%v), retrying", err)
		}
		if time.Since(downSince) > r.cfg.RetryTimeout {
			return zero, fmt.Errorf("server unreachable for %s: %w", r.cfg.RetryTimeout, lastErr)
		}
		if r.expired() {
			return zero, errors.New("deadline exceeded while retrying")
		}
		lastErr = err
		time.Sleep(200 * time.Millisecond)
	}
}

// isTransient classifies errors worth retrying: anything that says the
// connection (not the request) failed, including a 503 from a draining
// server.
func isTransient(err error) bool {
	var urlErr *url.Error
	if errors.As(err, &urlErr) {
		return true
	}
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// The typed client surfaces HTTP status in the error text; a 503 is
	// the draining server telling us to come back.
	return err != nil && (strings.Contains(err.Error(), "HTTP 503") || strings.Contains(err.Error(), "server is draining"))
}
