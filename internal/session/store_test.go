package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestStoreContract pins the Store semantics both backends share.
func TestStoreContract(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"disk", func(t *testing.T) Store {
			st, err := NewDiskStore(filepath.Join(t.TempDir(), "data"))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.open(t)
			defer st.Close()

			if _, err := st.Get("nope"); !errors.Is(err, ErrStoreNotFound) {
				t.Fatalf("Get on empty store: %v, want ErrStoreNotFound", err)
			}
			if err := st.Create("s1", []byte("meta-1"), []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Create("s1", nil, nil); !errors.Is(err, ErrStoreExists) {
				t.Fatalf("duplicate Create: %v, want ErrStoreExists", err)
			}
			recs := []AnswerRec{
				{U1: 1, U2: 2, Labels: []Label{{WorkerID: 0, Quality: 0.9, IsMatch: true}}},
				{U1: 3, U2: 4, Labels: []Label{{WorkerID: 1, Quality: 0.8, IsMatch: false}}},
				{U1: 5, U2: 6, Labels: nil},
			}
			for i, rec := range recs {
				if err := st.AppendAnswer("s1", i, rec, i == len(recs)-1); err != nil {
					t.Fatal(err)
				}
				got, err := st.Get("s1")
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Log) != i+1 || got.Done != (i == len(recs)-1) {
					t.Fatalf("after append %d: %d log records, done %v", i, len(got.Log), got.Done)
				}
			}
			got, err := st.Get("s1")
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Meta) != "meta-1" || string(got.Snapshot) != `{"v":1}` {
				t.Fatalf("Get returned meta %q snapshot %q", got.Meta, got.Snapshot)
			}
			for i, l := range got.Log {
				if l.Seq != i || l.Answer.U1 != recs[i].U1 || l.Answer.U2 != recs[i].U2 || len(l.Answer.Labels) != len(recs[i].Labels) {
					t.Fatalf("Log[%d] = %+v, want seq %d answer %+v", i, l, i, recs[i])
				}
			}
			if err := st.AppendAnswer("nope", 0, recs[0], false); !errors.Is(err, ErrStoreNotFound) {
				t.Fatalf("AppendAnswer to an unknown id: %v, want ErrStoreNotFound", err)
			}

			ids, err := st.List()
			if err != nil || len(ids) != 1 || ids[0] != "s1" {
				t.Fatalf("List = %v, %v", ids, err)
			}
			if err := st.Delete("s1"); err != nil {
				t.Fatal(err)
			}
			if ids, _ := st.List(); len(ids) != 0 {
				t.Fatalf("List after Delete = %v", ids)
			}
			if err := st.Delete("s1"); err != nil {
				t.Fatalf("Delete of unknown id should be a no-op, got %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.List(); !errors.Is(err, ErrStoreClosed) {
				t.Fatalf("List after Close: %v, want ErrStoreClosed", err)
			}
		})
	}
}

// TestDiskStoreUnsafeIDs proves hostile session IDs cannot escape the
// data directory and still round-trip through List.
func TestDiskStoreUnsafeIDs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := []string{"s1", "../../evil", "a/b", "@hex-looking", "job 42", "s1.bak"}
	for _, id := range ids {
		if err := st.Create(id, nil, []byte("{}")); err != nil {
			t.Fatalf("Create(%q): %v", id, err)
		}
	}
	got, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("List = %v, want %d ids", got, len(ids))
	}
	for _, id := range ids {
		if _, err := st.Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
	}
	// Nothing may exist outside the store root.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "evil")); !os.IsNotExist(err) {
		t.Fatal("a session ID escaped the data directory")
	}
}

// TestDiskStoreTornFinalLine proves a torn trailing log line (a kill
// mid-write, before the fsync and the ack) is dropped by Get and
// truncated away by the next append, while a malformed line, a sequence
// gap or a record after the done marker is reported as corruption — and
// the corrupt record stays deletable.
func TestDiskStoreTornFinalLine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create("s1", nil, []byte(`{"version":1,"id":"s1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAnswer("s1", 0, AnswerRec{U1: 1, U2: 2}, false); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, "sessions", "s1.log")
	appendRaw := func(text string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(text); err != nil {
			t.Fatal(err)
		}
	}
	appendRaw(`{"seq":1,"answer":{"u1":3,`)

	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, err := st2.Get("s1")
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(rec.Log) != 1 || rec.Log[0].Seq != 0 {
		t.Fatalf("recovered log = %+v, want the one intact record", rec.Log)
	}
	// The next append lands where the torn line began, not after it.
	if err := st2.AppendAnswer("s1", 1, AnswerRec{U1: 3, U2: 4}, true); err != nil {
		t.Fatal(err)
	}
	rec, err = st2.Get("s1")
	if err != nil {
		t.Fatalf("append after a torn line corrupted the log: %v", err)
	}
	if len(rec.Log) != 2 || !rec.Done {
		t.Fatalf("log after the append = %+v done=%v, want 2 records and done", rec.Log, rec.Done)
	}
	snap, err := rec.Replay()
	if err != nil || len(snap.Applied) != 2 || !snap.Done {
		t.Fatalf("Replay = %+v, %v", snap, err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, text := range map[string]string{
		"a record after the done marker": string(clean) + `{"seq":3,"answer":{"u1":5,"u2":6,"labels":null}}` + "\n",
		"a malformed mid-log line":       strings.Replace(string(clean), `{"seq":1,`, "garbage\n"+`{"seq":1,`, 1),
		"a corrupt create record":        "garbage\n" + string(clean),
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st2.Get("s1"); err == nil {
			t.Fatalf("%s went undetected", name)
		}
	}
	// A lost line is a sequence gap: the store reads it, Replay refuses it.
	if err := os.WriteFile(path, []byte(strings.Replace(string(clean), `{"seq":0,`, `{"seq":7,`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = st2.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("Replay over a sequence gap: %v, want a gap error", err)
	}
	if err := st2.Delete("s1"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := st2.List(); len(ids) != 0 {
		t.Fatalf("store still lists %v after deleting the corrupt record", ids)
	}
}

// TestDiskStoreTornTailRead covers what the reopening append reads to
// find a torn tail — the file's end, chunk by chunk, never the whole
// log: a torn line longer than one chunk, so the last newline lies
// beyond the first read, and a file that is nothing but a torn fragment,
// which has no newline to find at all.
func TestDiskStoreTornTailRead(t *testing.T) {
	long := `{"seq":1,"answer":{"u1":3,"u2":4,"labels":[` + strings.Repeat(`{"worker":1,"quality":0.9,"match":true},`, 3*tailChunk/40)
	if len(long) < 2*tailChunk {
		t.Fatalf("the torn line is %d bytes, want more than two %d-byte chunks", len(long), tailChunk)
	}
	dir := filepath.Join(t.TempDir(), "data")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create("s1", nil, []byte(`{"version":1,"id":"s1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAnswer("s1", 0, AnswerRec{U1: 1, U2: 2}, false); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := func(id string) string { return filepath.Join(dir, "sessions", id+".log") }
	intact, err := os.ReadFile(path("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("s1"), append(intact, long...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("s2"), []byte(long), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.AppendAnswer("s1", 1, AnswerRec{U1: 3, U2: 4}, false); err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Get("s1")
	if err != nil || len(rec.Log) != 2 || rec.Log[1].Seq != 1 {
		t.Fatalf("append after a %d-byte torn line: %+v, %v; want the two intact records", len(long), rec, err)
	}
	if data, _ := os.ReadFile(path("s1")); !bytes.HasPrefix(data, intact) || len(data) > len(intact)+200 {
		t.Fatalf("the log is %d bytes after the append, want the %d intact ones plus one short line", len(data), len(intact))
	}

	// The fragment-only file holds no session (Create renames a whole
	// first line into place, so only outside damage produces it): reading
	// it is an error, appending truncates the fragment, deleting works.
	if _, err := st2.Get("s2"); err == nil {
		t.Fatal("a log without a create record went undetected")
	}
	if err := st2.AppendAnswer("s2", 0, AnswerRec{U1: 1, U2: 2}, false); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path("s2")); bytes.Count(data, []byte{'\n'}) != 1 || bytes.Contains(data, []byte(`"worker"`)) {
		t.Fatalf("the append left %d bytes of the torn fragment in place", len(data))
	}
	if err := st2.Delete("s2"); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreRejectsOldLayout: a data directory written by the
// directory-per-session store (meta + snapshot.json + WAL segments) must
// fail to open with an error that names the layout — never open as an
// empty store that silently forgets its sessions.
func TestDiskStoreRejectsOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "sessions", "s1")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "snapshot.json", "wal-00000001.log"} {
		if err := os.WriteFile(filepath.Join(old, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewDiskStore(dir)
	if err == nil {
		ids, _ := st.List()
		t.Fatalf("old-layout directory opened (listing %v)", ids)
	}
	if !strings.Contains(err.Error(), "layout") || !strings.Contains(err.Error(), "snapshot.json") {
		t.Fatalf("error does not name the old layout: %v", err)
	}
}

// TestManagerDiskRoundTrip is the happy-path durability test: sessions
// journaled to a disk store, the process "restarts" (new store + new
// manager), recovery rebuilds them mid-run and they finish with results
// byte-identical to the synchronous run.
func TestManagerDiskRoundTrip(t *testing.T) {
	k1, k2, gold := bookWorld(6, 31)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))
	dir := filepath.Join(t.TempDir(), "data")

	prep := func(id string, meta []byte) (*core.Prepared, string, error) {
		if string(meta) != "spec-blob" {
			t.Fatalf("recovery got meta %q", meta)
		}
		return core.Prepare(k1, k2, testConfig(nil)), "books", nil
	}

	// First incarnation: two sessions, a few answers each, then a "crash"
	// (the store is simply abandoned, like a killed process).
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerStore(st)
	var firstIDs []string
	for i := 0; i < 2; i++ {
		s, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", []byte("spec-blob"))
		if err != nil {
			t.Fatal(err)
		}
		firstIDs = append(firstIDs, s.ID())
		for _, q := range s.NextBatch() {
			if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PersistErr(); err != nil {
			t.Fatal(err)
		}
	}

	// Second incarnation.
	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManagerStore(st2)
	recovered, err := mgr2.Recover(prep)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %v, want both of %v", recovered, firstIDs)
	}
	for _, id := range recovered {
		s, ok := mgr2.Get(id)
		if !ok {
			t.Fatalf("recovered session %s not registered", id)
		}
		for !s.Done() {
			batch := s.NextBatch()
			if len(batch) == 0 {
				// Open questions in flight in the sibling; it is driven to
				// completion below, but here both sessions share every answer
				// through the cache, so an empty batch means the sibling's
				// answers will drain in.
				if s.Done() {
					break
				}
				continue
			}
			for _, q := range batch {
				if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertResultsIdentical(t, want, s.Result())
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third incarnation: both sessions are done; recovery must restore
	// them as done from their closed logs.
	st3, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr3 := NewManagerStore(st3)
	recovered, err = mgr3.Recover(prep)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %v after flush", recovered)
	}
	for _, id := range recovered {
		s, _ := mgr3.Get(id)
		if !s.Done() {
			t.Fatalf("session %s recovered un-done after a clean shutdown", id)
		}
		assertResultsIdentical(t, want, s.Result())
	}
	if err := mgr3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManagerCreateSkipsDormantStoreIDs is the regression test for a
// store that still holds sessions the manager never recovered (failed
// recovery, or OpenManager with recovery skipped): Create must step
// over their IDs instead of failing with ErrStoreExists.
func TestManagerCreateSkipsDormantStoreIDs(t *testing.T) {
	k1, k2, _ := bookWorld(4, 71)
	st := NewMemStore()
	for _, id := range []string{"s1", "s2"} {
		if err := st.Create(id, nil, []byte(`{"dormant":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	mgr := NewManagerStore(st)
	s, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), "books", nil)
	if err != nil {
		t.Fatalf("Create over dormant store records: %v", err)
	}
	if s.ID() == "s1" || s.ID() == "s2" {
		t.Fatalf("Create reused dormant ID %q", s.ID())
	}
	if _, err := st.Get(s.ID()); err != nil {
		t.Fatalf("created session not persisted: %v", err)
	}
	if rec, err := st.Get("s1"); err != nil || string(rec.Snapshot) != `{"dormant":true}` {
		t.Fatalf("dormant record disturbed: %v %q", err, rec.Snapshot)
	}
}
