package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/session"
	"repro/remp"
)

// fixture builds a books dataset, its TSV wire form and a name-keyed gold
// standard — everything a client needs to create an equivalent session
// over HTTP. WriteTSV preserves entity-ID order, so server-side pairs are
// comparable with locally computed ones.
func fixture(t *testing.T, n int) (remp.Dataset, *remp.Gold, CreateRequest) {
	t.Helper()
	k1 := kb.New("library")
	k2 := kb.New("catalog")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")
	wrote1, wrote2 := k1.AddRel("wrote"), k2.AddRel("authorOf")

	var gold []remp.Pair
	var goldNames [][2]string
	add := func(base string) (kb.EntityID, kb.EntityID) {
		u1 := k1.AddEntity("l:" + base)
		u2 := k2.AddEntity("r:" + base)
		k1.SetLabel(u1, base)
		k2.SetLabel(u2, base)
		k1.AddAttrTriple(u1, name1, base)
		k2.AddAttrTriple(u2, name2, base)
		gold = append(gold, remp.Pair{U1: u1, U2: u2})
		goldNames = append(goldNames, [2]string{"l:" + base, "r:" + base})
		return u1, u2
	}
	for i := 0; i < n; i++ {
		a1, a2 := add(fmt.Sprintf("author %d", i))
		for b := 0; b < 2; b++ {
			b1, b2 := add(fmt.Sprintf("book %d %d", i, b))
			k1.AddRelTriple(a1, wrote1, b1)
			k2.AddRelTriple(a2, wrote2, b2)
		}
		add(fmt.Sprintf("editor %d", i))
	}

	var tsv1, tsv2 strings.Builder
	if err := k1.WriteTSV(&tsv1); err != nil {
		t.Fatal(err)
	}
	if err := k2.WriteTSV(&tsv2); err != nil {
		t.Fatal(err)
	}
	req := CreateRequest{
		KB1TSV:  tsv1.String(),
		KB2TSV:  tsv2.String(),
		Gold:    goldNames,
		Options: OptionsDTO{Mu: 3},
	}
	return remp.Dataset{K1: k1, K2: k2}, remp.NewGold(gold), req
}

// oracleAnswer builds the wire answer NewOracleCrowd would give.
func oracleAnswer(t *testing.T, gold *remp.Gold, id string) AnswerDTO {
	t.Helper()
	q, err := session.ParseQuestionID(id)
	if err != nil {
		t.Fatalf("server issued unparsable question id %q: %v", id, err)
	}
	return AnswerDTO{ID: id, Labels: []remp.Label{{WorkerID: 0, Quality: 0.999, IsMatch: gold.IsMatch(q)}}}
}

func newTestServer(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), ts
}

// driveReversed answers every batch in reverse order until the session is
// done, posting each answer in its own request.
func driveReversed(t *testing.T, c *Client, gold *remp.Gold, info *SessionInfo) *SessionInfo {
	t.Helper()
	for info.State != string(remp.SessionDone) {
		if len(info.Batch) == 0 {
			t.Fatalf("session %s awaiting answers with an empty batch", info.ID)
		}
		for i := len(info.Batch) - 1; i >= 0; i-- {
			next, err := c.PostAnswers(info.ID, []AnswerDTO{oracleAnswer(t, gold, info.Batch[i].ID)})
			if err != nil {
				t.Fatalf("PostAnswers: %v", err)
			}
			if len(next.Rejected) != 0 {
				t.Fatalf("fresh answer rejected: %+v", next.Rejected)
			}
			info = &next.SessionInfo
		}
	}
	return info
}

// TestHTTPSessionMatchesResolve is the acceptance test at the HTTP layer:
// a session created over the wire and fed answers in reverse order must
// reproduce remp.Resolve's result exactly — match set, question count and
// loop count.
func TestHTTPSessionMatchesResolve(t *testing.T) {
	ds, gold, req := fixture(t, 5)
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), req.Options)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := map[[2]string]bool{}
	for m := range want.Matches {
		wantNames[[2]string{ds.K1.EntityName(m.U1), ds.K2.EntityName(m.U2)}] = true
	}

	c, _ := newTestServer(t)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	info = driveReversed(t, c, gold, info)

	res, err := c.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("result endpoint reports an unfinished session after the loop stopped")
	}
	if res.Questions != want.Questions || res.Loops != want.Loops {
		t.Fatalf("questions/loops %d/%d over HTTP, want %d/%d", res.Questions, res.Loops, want.Questions, want.Loops)
	}
	if len(res.Matches) != len(wantNames) {
		t.Fatalf("%d matches over HTTP, want %d", len(res.Matches), len(wantNames))
	}
	for _, m := range res.Matches {
		if !wantNames[m] {
			t.Fatalf("HTTP-only match %v", m)
		}
	}
	if res.Confirmed != len(want.Confirmed) || res.Propagated != len(want.Propagated) ||
		res.IsolatedPredicted != len(want.IsolatedPredicted) || res.NonMatches != len(want.NonMatches) {
		t.Fatalf("result breakdown differs: got %d/%d/%d/%d, want %d/%d/%d/%d",
			res.Confirmed, res.Propagated, res.IsolatedPredicted, res.NonMatches,
			len(want.Confirmed), len(want.Propagated), len(want.IsolatedPredicted), len(want.NonMatches))
	}
	if res.PRF == nil {
		t.Fatal("no PRF despite a gold standard in the create request")
	}
	if res.PRF.F1 <= 0 {
		t.Fatalf("F1 = %v", res.PRF.F1)
	}
}

// TestHTTPSnapshotRestore snapshots a half-finished session, deletes it,
// restores it from the snapshot and finishes it — the process-restart
// story over the wire.
func TestHTTPSnapshotRestore(t *testing.T) {
	ds, gold, req := fixture(t, 5)
	want, err := remp.Resolve(ds, remp.NewOracleCrowd(gold.IsMatch), req.Options)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := newTestServer(t)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	// Answer exactly one batch, then snapshot and drop the live session.
	var answers []AnswerDTO
	for _, q := range info.Batch {
		answers = append(answers, oracleAnswer(t, gold, q.ID))
	}
	posted, err := c.PostAnswers(info.ID, answers)
	if err != nil {
		t.Fatal(err)
	}
	if posted.Accepted != len(answers) || len(posted.Rejected) != 0 {
		t.Fatalf("posted %d answers, accepted %d (rejected %+v)", len(answers), posted.Accepted, posted.Rejected)
	}
	info = &posted.SessionInfo
	snap, err := c.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if ids, _ := c.Sessions(); len(ids) != 0 {
		t.Fatalf("sessions survive deletion: %v", ids)
	}

	restored, err := c.Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ID != info.ID {
		t.Errorf("restored under id %q, want %q", restored.ID, info.ID)
	}
	if restored.Questions != info.Questions || restored.Loops != info.Loops {
		t.Fatalf("restored progress %d/%d, want %d/%d",
			restored.Questions, restored.Loops, info.Questions, info.Loops)
	}
	final := driveReversed(t, c, gold, restored)
	res, err := c.Result(final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != want.Questions || res.Loops != want.Loops || len(res.Matches) != len(want.Matches) {
		t.Fatalf("restored run diverged: %d questions / %d loops / %d matches, want %d/%d/%d",
			res.Questions, res.Loops, len(res.Matches), want.Questions, want.Loops, len(want.Matches))
	}
}

// TestHTTPSharedCacheAcrossSessions creates two sessions over the same
// inline dataset: the second must never be handed a question the first
// already has in flight, and once the first finishes, the second resolves
// entirely from the shared answer cache — zero crowd answers posted.
func TestHTTPSharedCacheAcrossSessions(t *testing.T) {
	_, gold, req := fixture(t, 5)
	c, _ := newTestServer(t)

	a, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Batch) != 0 {
		t.Fatalf("session %s was handed %d questions already in flight in %s", b.ID, len(b.Batch), a.ID)
	}

	a = driveReversed(t, c, gold, a)

	// b drains the cache batch by batch; no answer is ever posted to it.
	for i := 0; i < 1000; i++ {
		info, err := c.Batch(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == string(remp.SessionDone) {
			b = info
			break
		}
		if len(info.Batch) != 0 {
			t.Fatalf("session %s re-published %d questions that %s already answered", b.ID, len(info.Batch), a.ID)
		}
	}
	if b.State != string(remp.SessionDone) {
		t.Fatalf("session %s did not finish from the shared cache", b.ID)
	}
	if b.Questions != a.Questions {
		t.Fatalf("cache-fed session answered %d questions, sibling %d", b.Questions, a.Questions)
	}
	resA, err := c.Result(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := c.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Matches) != len(resB.Matches) {
		t.Fatalf("cache-fed session found %d matches, sibling %d", len(resB.Matches), len(resA.Matches))
	}
}

// TestHTTPErrors pins the error contract: unknown sessions are 404,
// malformed creates 400, duplicate answers 409, oversized bodies 413.
func TestHTTPErrors(t *testing.T) {
	_, gold, req := fixture(t, 4)
	c, _ := newTestServer(t)

	if _, err := c.Batch("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown session: %v", err)
	}
	if _, err := c.CreateSession(CreateRequest{}); err == nil {
		t.Error("empty create accepted")
	}
	if _, err := c.CreateSession(CreateRequest{Dataset: "bogus"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	bad := req
	bad.Options.Mu = -3
	if _, err := c.CreateSession(bad); err == nil || !strings.Contains(err.Error(), "Mu") {
		t.Errorf("negative Mu accepted or error unhelpful: %v", err)
	}
	// µ reaches the loop as sent. Past every candidate it asks them all in
	// one batch; sizing an allocation by it would kill the process. Deleting
	// the session releases its answer-cache reservations on every pair.
	bad.Options.Mu = 1 << 40
	info, err := c.CreateSession(bad)
	if err != nil || len(info.Batch) == 0 {
		t.Fatalf("create with µ = 2^40: %v", err)
	}
	if err := c.Delete(info.ID); err != nil {
		t.Fatal(err)
	}

	info, err = c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	ans := oracleAnswer(t, gold, info.Batch[0].ID)
	first, err := c.PostAnswers(info.ID, []AnswerDTO{ans})
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 1 {
		t.Fatalf("first answer accepted %d times", first.Accepted)
	}
	// Retrying the identical request must not fail it — the duplicate is
	// reported per answer and the session state is untouched.
	retry, err := c.PostAnswers(info.ID, []AnswerDTO{ans})
	if err != nil {
		t.Fatalf("retried answer failed the request: %v", err)
	}
	if retry.Accepted != 0 || len(retry.Rejected) != 1 || retry.Rejected[0].ID != ans.ID {
		t.Errorf("retry outcome: accepted %d, rejected %+v", retry.Accepted, retry.Rejected)
	}
	if retry.Questions != first.Questions {
		t.Errorf("retry changed question count: %d != %d", retry.Questions, first.Questions)
	}
	bad2, err := c.PostAnswers(info.ID, []AnswerDTO{{ID: "zzz", Labels: ans.Labels}, {ID: info.Batch[0].ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad2.Rejected) != 2 {
		t.Errorf("malformed id and labelless answer not both rejected: %+v", bad2.Rejected)
	}
	if _, err := c.PostAnswers(info.ID, nil); err == nil {
		t.Error("empty answers request accepted")
	}

	// Restore status codes: a malformed snapshot is the client's fault
	// (400); restoring over a live session ID is a conflict (409).
	if _, err := c.Restore(&SnapshotDTO{Create: req, Session: []byte(`{"version":99}`)}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("malformed snapshot restore: %v", err)
	}
	snap, err := c.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore(snap); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("restore over a live session: %v", err)
	}

	// Every POST body is capped: an oversized one is refused with 413 and
	// the usual error envelope, whichever route it arrives on.
	huge := strings.Repeat("x", maxBodyBytes)
	_, createErr := c.CreateSession(CreateRequest{KB1TSV: huge, KB2TSV: "x"})
	_, restoreErr := c.Restore(&SnapshotDTO{Create: CreateRequest{KB1TSV: huge, KB2TSV: "x"}, Session: snap.Session})
	_, answersErr := c.PostAnswers(info.ID, []AnswerDTO{{ID: huge, Labels: ans.Labels}})
	for route, err := range map[string]error{"create": createErr, "restore": restoreErr, "answers": answersErr} {
		if err == nil || !strings.Contains(err.Error(), "413") || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("oversized %s body: %v, want a 413 naming the limit", route, err)
		}
	}
}

// TestQuestionIDRoundTrip pins the wire format of question IDs.
func TestQuestionIDRoundTrip(t *testing.T) {
	q := pair.Pair{U1: 12, U2: 345}
	id := session.QuestionID(q)
	if id != "12-345" {
		t.Fatalf("QuestionID = %q", id)
	}
	back, err := session.ParseQuestionID(id)
	if err != nil || back != q {
		t.Fatalf("ParseQuestionID(%q) = %v, %v", id, back, err)
	}
}

// TestNewServerRejectsNegativeDefaultShards: a negative server default is
// the operator's mistake, so it fails startup with no server, instead of
// coming up and failing every create that names no shard count with a 400.
func TestNewServerRejectsNegativeDefaultShards(t *testing.T) {
	srv, _, err := NewServer(Config{DefaultShards: -1})
	if srv != nil || err == nil || !strings.Contains(err.Error(), "DefaultShards = -1") {
		t.Fatalf("NewServer with DefaultShards -1 = %v, %v; want no server and an error naming the field", srv, err)
	}
	for _, shards := range []int{0, 1, 4} {
		if srv, _, err := NewServer(Config{DefaultShards: shards}); srv == nil || err != nil {
			t.Fatalf("NewServer with DefaultShards %d = %v, %v; want a server", shards, srv, err)
		}
	}
}

// TestServerDrainThenRefuse pins the graceful-shutdown semantics: a
// request in flight when Shutdown begins completes, requests arriving
// afterwards are refused with 503, /healthz flips to draining, and the
// flushed store recovers every session in a successor server.
func TestServerDrainThenRefuse(t *testing.T) {
	dir := t.TempDir()
	store, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, recovered, err := NewServer(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh store recovered %v", recovered)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	_, gold, req := fixture(t, 4)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Batch) == 0 {
		t.Fatal("no opening batch")
	}

	// Healthy before the drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Store    string `json:"store"`
		Sessions int    `json:"sessions_active"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Store != "disk" || health.Sessions != 1 || health.Draining {
		t.Fatalf("healthz before drain: HTTP %d %+v", resp.StatusCode, health)
	}
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d, want 200", resp.StatusCode)
	}

	// A request that enters before Shutdown must complete: block one in
	// the answers handler by starting it just before draining, using a
	// slow body so ServeHTTP is already past the gate when drain flips.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.PostAnswers(info.ID, []AnswerDTO{oracleAnswer(t, gold, info.Batch[0].ID)})
		finished <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-finished; err != nil && !strings.Contains(err.Error(), "503") {
		// The in-flight answer either completed or was refused cleanly at
		// the gate, depending on who won the race; both are drain-correct.
		t.Fatalf("in-flight request failed hard: %v", err)
	}

	// After the drain every /v1 request is refused with 503...
	if _, err := c.Batch(info.ID); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("gated endpoint after drain: %v, want 503", err)
	}
	if _, err := c.CreateSession(req); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("create after drain: %v, want 503", err)
	}
	// ...liveness stays 200 but reports draining, and readiness flips to
	// 503 so load balancers stop routing here.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "draining" || !health.Draining {
		t.Fatalf("healthz after drain: HTTP %d %+v, want 200 draining", resp.StatusCode, health)
	}
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: HTTP %d, want 503", resp.StatusCode)
	}

	// The flushed store brings the session back in a successor process.
	store2, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, recovered, err := NewServer(Config{Store: store2})
	if err != nil {
		t.Fatalf("successor recovery: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != info.ID {
		t.Fatalf("successor recovered %v, want [%s]", recovered, info.ID)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	c2 := NewClient(ts2.URL)
	got, err := c2.Batch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := driveReversed(t, c2, gold, got)
	res, err := c2.Result(final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || len(res.Matches) == 0 {
		t.Fatalf("recovered session finished with %+v", res)
	}
}

// TestServerRecoversAcrossRestart proves the disk-store server resumes
// sessions mid-run with results identical to an uninterrupted HTTP run,
// including a session created from inline TSV KBs (whose spec must
// round-trip through the stored meta blob).
func TestServerRecoversAcrossRestart(t *testing.T) {
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
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	// Answer only the opening batch, then abandon the process without
	// any flush: the WAL alone must carry these answers.
	for _, q := range info.Batch {
		if _, err := c.PostAnswers(info.ID, []AnswerDTO{oracleAnswer(t, gold, q.ID)}); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()

	store2, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, recovered, err := NewServer(Config{Store: store2})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != info.ID {
		t.Fatalf("recovered %v, want [%s]", recovered, info.ID)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	c2 := NewClient(ts2.URL)

	got, err := c2.Batch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := driveReversed(t, c2, gold, got)
	res, err := c2.Result(final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != want.Questions || res.Loops != want.Loops || len(res.Matches) != len(want.Matches) {
		t.Fatalf("recovered run diverged: got %d matches / %d questions / %d loops, want %d / %d / %d",
			len(res.Matches), res.Questions, res.Loops, len(want.Matches), want.Questions, want.Loops)
	}
}

// TestCreateIdempotentByClientRef pins the create-retry contract: the
// same client_ref returns the same session (even across a restart),
// and deleting the session frees the ref.
func TestCreateIdempotentByClientRef(t *testing.T) {
	dir := t.TempDir()
	store, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewServer(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL)

	_, _, req := fixture(t, 4)
	req.ClientRef = "job-7"
	first, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	retried, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if retried.ID != first.ID {
		t.Fatalf("retried create spawned %s, want the original %s", retried.ID, first.ID)
	}
	if ids, _ := c.Sessions(); len(ids) != 1 {
		t.Fatalf("retry left %v sessions, want 1", ids)
	}
	ts.Close()

	// The ref survives a restart (it lives in the persisted spec).
	store2, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, _, err := NewServer(Config{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	c2 := NewClient(ts2.URL)
	recoveredRetry, err := c2.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if recoveredRetry.ID != first.ID {
		t.Fatalf("post-restart retry spawned %s, want %s", recoveredRetry.ID, first.ID)
	}
	// Delete, then re-create under the same ref: a genuinely new live
	// session must come back (a stale ref can never serve a dead one —
	// handleCreate checks liveness), and exactly one session exists.
	if err := c2.Delete(first.ID); err != nil {
		t.Fatal(err)
	}
	fresh, err := c2.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, live := srv2.mgr.Get(fresh.ID); !live {
		t.Fatalf("create after delete returned non-live session %s", fresh.ID)
	}
	if ids, _ := c2.Sessions(); len(ids) != 1 {
		t.Fatalf("after delete + re-create: %v sessions, want exactly 1", ids)
	}
}

// TestDeletePurgesDormantStoreRecord proves DELETE reaches sessions
// that exist only in the store — e.g. ones skipped at recovery — so a
// broken record cannot haunt every restart forever.
func TestDeletePurgesDormantStoreRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A record with an unparsable spec: recovery will skip it.
	if err := store.Create("zombie", []byte("not json"), []byte(`{"version":1,"id":"zombie"}`)); err != nil {
		t.Fatal(err)
	}
	srv, recovered, err := NewServer(Config{Store: store})
	if err == nil {
		t.Fatal("recovery of an unparsable spec reported no error")
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %v", recovered)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if err := c.Delete("zombie"); err != nil {
		t.Fatalf("deleting the dormant record: %v", err)
	}
	if err := c.Delete("zombie"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("second delete: %v, want 404", err)
	}
	if ids, _ := store.List(); len(ids) != 0 {
		t.Fatalf("store still holds %v", ids)
	}
}

// TestCreateSpecJSONStable pins a create request's JSON bytes. The server
// stores them as a session's meta and keys its plan cache on them, so a
// session a previous build wrote must still recover: every option set and
// none must marshal to exactly these bytes, and decode back unchanged.
func TestCreateSpecJSONStable(t *testing.T) {
	cases := []struct {
		req  CreateRequest
		want string
	}{
		{CreateRequest{Dataset: "books"}, `{"dataset":"books","options":{}}`},
		{CreateRequest{
			Dataset: "d-a", Seed: 7, KB1TSV: "a\tb\n", KB2TSV: "c\td\n", Gold: [][2]string{{"l:x", "r:x"}}, ClientRef: "ref-1",
			Options: OptionsDTO{K: 5, Tau: 0.8, Mu: 3, LabelSimThreshold: 0.4, Budget: 90, MaxLoops: 6, Strategy: "maxinf",
				DisableIsolatedClassifier: true, Seed: 11, Shards: 2, Deduce: true},
		}, `{"dataset":"d-a","seed":7,"kb1_tsv":"a\tb\n","kb2_tsv":"c\td\n","gold":[["l:x","r:x"]],"client_ref":"ref-1","options":{"k":5,"tau":0.8,"mu":3,"label_sim_threshold":0.4,"budget":90,"max_loops":6,"strategy":"maxinf","disable_isolated_classifier":true,"seed":11,"shards":2,"deduce":true}}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("create spec JSON changed:\n got %s\nwant %s", got, tc.want)
		}
		var back CreateRequest
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.req) {
			t.Errorf("decoding %s gives %+v, want %+v", tc.want, back, tc.req)
		}
	}
}

// TestHTTPRejectsBadLabels posts answers whose labels pose as the
// deduction tier or carry a quality outside (0, 1]: each is rejected in
// the response's Rejected list, nothing is applied, the question stays
// in the batch, and a good answer for it is accepted afterwards.
func TestHTTPRejectsBadLabels(t *testing.T) {
	_, gold, req := fixture(t, 4)
	c, _ := newTestServer(t)
	info, err := c.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	ans := oracleAnswer(t, gold, info.Batch[0].ID)
	var bad []AnswerDTO
	for _, l := range []remp.Label{
		{WorkerID: session.DeducedWorkerID, Quality: 0.999, IsMatch: true},
		{WorkerID: 3, Quality: 0, IsMatch: true},
		{WorkerID: 3, Quality: 2, IsMatch: true},
	} {
		bad = append(bad, AnswerDTO{ID: ans.ID, Labels: []remp.Label{l}})
	}
	resp, err := c.PostAnswers(info.ID, bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || len(resp.Rejected) != len(bad) {
		t.Fatalf("bad labels: accepted %d, rejected %+v", resp.Accepted, resp.Rejected)
	}
	for _, r := range resp.Rejected {
		if r.ID != ans.ID || !strings.Contains(r.Error, "bad label") {
			t.Errorf("rejection %+v does not name the bad label", r)
		}
	}
	if resp.Questions != 0 || len(resp.Batch) == 0 || resp.Batch[0].ID != ans.ID {
		t.Fatalf("rejected answers moved the session: %d questions, batch %+v", resp.Questions, resp.Batch)
	}
	if good, err := c.PostAnswers(info.ID, []AnswerDTO{ans}); err != nil || good.Accepted != 1 {
		t.Fatalf("good answer after rejections: %+v, %v", good, err)
	}
}

// TestDeleteRacesInFlightRequests deletes a session, twice at once, while
// GET /batch, POST /answers and GET /result run against it. Every
// response is 200, 204 or 404 (a 200 may reject answers one by one), none
// is a 5xx or a dropped connection, and the session's hold on its plan is
// released exactly once: its plan is held by nobody afterwards. Each round
// runs on a fresh server, so no sibling's cached answers empty the opening
// batch. Run it under -race.
func TestDeleteRacesInFlightRequests(t *testing.T) {
	_, gold, req := fixture(t, 6)
	for round := 0; round < 20; round++ {
		srv := New()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := NewClient(ts.URL)
		info, err := c.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		pl := sessionPlan(srv, info.ID)
		var answers []AnswerDTO
		for _, q := range info.Batch {
			answers = append(answers, oracleAnswer(t, gold, q.ID))
		}
		body, err := json.Marshal(AnswersRequest{Answers: answers})
		if err != nil {
			t.Fatal(err)
		}
		base := ts.URL + "/v1/sessions/" + info.ID
		calls := []struct{ method, url, body string }{
			{http.MethodGet, base + "/batch", ""},
			{http.MethodPost, base + "/answers", string(body)},
			{http.MethodGet, base + "/result", ""},
			{http.MethodDelete, base, ""},
			{http.MethodDelete, base, ""},
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, call := range calls {
			for range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					r, err := http.NewRequest(call.method, call.url, strings.NewReader(call.body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(r)
					if err != nil {
						t.Errorf("%s %s: %v", call.method, call.url, err)
						return
					}
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK, http.StatusNoContent, http.StatusNotFound:
					default:
						t.Errorf("%s %s: status %d", call.method, call.url, resp.StatusCode)
					}
				}()
			}
		}
		close(start)
		wg.Wait()
		if _, err := c.Batch(info.ID); err == nil {
			t.Fatalf("round %d: session %s still served after its DELETE", round, info.ID)
		}
		srv.plans.mu.Lock()
		holds, idle := pl.holds, pl.idle != nil
		srv.plans.mu.Unlock()
		if holds != 0 || !idle {
			t.Fatalf("round %d: after the DELETE the plan has %d holds (idle %v), want 0 and idle", round, holds, idle)
		}
	}
}
