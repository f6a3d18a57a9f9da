package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/session"
	"repro/remp"
)

// catalogNames loads internal/obs/catalog.txt — the committed contract
// of metric families a live server must export (CI scrapes a real
// server against the same file): one family name per line, # comments
// and blanks skipped.
func catalogNames(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../obs/catalog.txt")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line)
	}
	if len(names) == 0 {
		t.Fatal("catalog is empty")
	}
	return names
}

// metricsFixture stands up a server over a disk store, so the durable
// write path (log append, fsync) produces telemetry too.
func metricsFixture(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	store, err := session.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewServer(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL)
}

// expositionLine matches one sample or comment line of the Prometheus
// text format (0.0.4).
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9eE.+-]+(e[+-]?[0-9]+)?)$`)

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue extracts the value of the sample line that starts with
// name (including any label set, e.g. `foo_total{route="answers"}`).
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if n, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); n == 1 && err == nil {
			return v
		}
	}
	t.Fatalf("no sample %q in exposition", name)
	return 0
}

// runSession drives one session to completion through the HTTP API.
func runSession(t *testing.T, c *Client, gold *remp.Gold, req CreateRequest) {
	t.Helper()
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	for hops := 0; info.State != string(remp.SessionDone) && hops < 200; hops++ {
		if len(info.Batch) == 0 {
			t.Fatalf("awaiting session with no batch: %+v", info)
		}
		answers := make([]AnswerDTO, 0, len(info.Batch))
		for _, q := range info.Batch {
			answers = append(answers, oracleAnswer(t, gold, q.ID))
		}
		resp, err := c.PostAnswers(info.ID, answers)
		if err != nil {
			t.Fatal(err)
		}
		info = &resp.SessionInfo
	}
}

// TestMetricsExposition drives one session end to end and checks the
// scrape is grammatically valid, covers the committed catalog, and
// carries the loop-stage, persistence-latency and cache-counter series
// the observability layer promises.
func TestMetricsExposition(t *testing.T) {
	_, ts, c := metricsFixture(t)
	_, gold, req := fixture(t, 4)
	runSession(t, c, gold, req)

	text := scrape(t, ts)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, name := range catalogNames(t) {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("catalog family %q missing from exposition", name)
		}
	}
	if strings.Contains(text, "remp_store_snapshot_seconds") {
		t.Error("the snapshot-rotation family is still exported; the store no longer rotates anything")
	}
	// The run above answered questions through a disk-backed session, so
	// the loop stages, the log append path and the cache all saw traffic.
	for name, min := range map[string]float64{
		"remp_loop_batches_total":         1,
		"remp_loop_questions_total":       1,
		"remp_engine_recomputes_total":    1,
		"remp_store_append_seconds_count": 1,
		"remp_store_fsync_seconds_count":  1,
		"remp_cache_misses_total":         1,
		"remp_sessions_created_total":     1,
	} {
		if v := sampleValue(t, text, name); v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	for _, stage := range []string{"prepare", "infer", "select", "apply", "classify"} {
		if v := sampleValue(t, text, fmt.Sprintf(`remp_loop_stage_seconds_count{stage=%q}`, stage)); v < 1 {
			t.Errorf("loop stage %q never recorded a span", stage)
		}
	}
	if !strings.Contains(text, `remp_http_requests_total{route="answers"}`) {
		t.Error("no per-route request counter in exposition")
	}

}

// TestMetricsCounterMonotonicUnderLoad scrapes while concurrent sessions
// answer questions and checks request counters never move backwards —
// the -race target for the whole metrics path.
func TestMetricsCounterMonotonicUnderLoad(t *testing.T) {
	_, ts, c := metricsFixture(t)
	_, gold, req := fixture(t, 4)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := req
			r.ClientRef = fmt.Sprintf("load-%d", w)
			info, err := c.CreateSession(r)
			if err != nil {
				t.Error(err)
				return
			}
			for hops := 0; info.State != string(remp.SessionDone) && hops < 100; hops++ {
				if len(info.Batch) == 0 {
					// Siblings hold the open questions in flight; poll.
					if info, err = c.Batch(info.ID); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				resp, err := c.PostAnswers(info.ID, []AnswerDTO{oracleAnswer(t, gold, info.Batch[0].ID)})
				if err != nil {
					t.Error(err)
					return
				}
				info = &resp.SessionInfo
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := float64(0)
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		text := scrape(t, ts)
		v := sampleValue(t, text, `remp_http_requests_total{route="answers"}`)
		if v < last {
			t.Fatalf("remp_http_requests_total{answers} went backwards: %v -> %v", last, v)
		}
		last = v
	}
}

// TestConcurrentDeletesRemoveOnce: of many DELETEs racing on one live
// session exactly one answers 204 — the rest find it gone, 404 — and the
// deletion counter moves by one.
func TestConcurrentDeletesRemoveOnce(t *testing.T) {
	_, ts, c := metricsFixture(t)
	_, _, req := fixture(t, 4)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	before := sampleValue(t, scrape(t, ts), "remp_sessions_deleted_total")

	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(r)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	deleted := 0
	for _, code := range codes {
		switch code {
		case http.StatusNoContent:
			deleted++
		case http.StatusNotFound:
		default:
			t.Errorf("DELETE answered %d", code)
		}
	}
	if deleted != 1 {
		t.Errorf("%d of %d concurrent DELETEs answered 204, want exactly 1 (codes %v)", deleted, n, codes)
	}
	if after := sampleValue(t, scrape(t, ts), "remp_sessions_deleted_total"); after-before != 1 {
		t.Errorf("remp_sessions_deleted_total moved by %v, want 1", after-before)
	}
}
