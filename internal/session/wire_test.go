package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/pair"
)

// TestLabelWireBytes pins a label's wire bytes in the two durable forms,
// a session's DiskStore log and its snapshot. A crowd label encodes as
// exactly {"worker":…,"quality":…,"match":…}, and a label the namespace
// deduction tier synthesized differs only by worker -1. Logs and
// snapshots whose deduced label also carries the "source":"deduced"
// marker an older encoder wrote recover to the same session, and
// re-encode without it.
func TestLabelWireBytes(t *testing.T) {
	k1, k2, gold := bookWorld(6, 15)
	mod := func(c *core.Config) { c.Deduce = true }
	prep := func() *core.Prepared { return core.Prepare(k1, k2, testConfig(mod)) }
	want := prep().Run(core.NewOracleAsker(gold.IsMatch))

	// A non-gold question of the opening batch whose gold competitor lies
	// outside the batch: once a sibling answers the competitor, only the
	// namespace tier can close the question, at the loop's cursor (see
	// TestCrossSessionDeduction).
	batch := New("probe", prep(), nil).NextBatch()
	var target, implied pair.Pair
	for _, q := range batch {
		g := pair.Pair{U1: q.Pair.U1, U2: kb.EntityID(q.Pair.U1)}
		inBatch := false
		for _, b := range batch {
			inBatch = inBatch || b.Pair == g
		}
		if !gold.IsMatch(q.Pair) && gold.IsMatch(g) && !inBatch {
			target, implied = q.Pair, g
			break
		}
	}
	if target == (pair.Pair{}) {
		t.Fatal("fixture has no competitor question whose gold match is outside the opening batch")
	}
	// The deduction tier answers non-matches only here: the sibling's one
	// answer excludes its entities' competitors.
	const deduced = `{"worker":-1,"quality":0.999,"match":false}`
	const parentDeduced = `{"worker":-1,"quality":0.999,"match":false,"source":"deduced"}`
	crowd := func(match bool) string { return fmt.Sprintf(`{"worker":0,"quality":0.999,"match":%t}`, match) }

	// One session journaled to disk: the deduction tier answers target
	// as the session's cursor reaches it, and the crowd answers the rest
	// of the opening batch. The first snapshot holds the deduced answer,
	// applied; the second adds the crowd's.
	dir := filepath.Join(t.TempDir(), "new")
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerStore(st)
	s, err := mgr.Create(prep(), "books", []byte("spec"))
	if err != nil {
		t.Fatal(err)
	}
	mgr.Cache("books").put(implied, oracleLabels(gold, implied))
	published := s.NextBatch()
	snapshot, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range published {
		if q.Pair == target {
			t.Fatalf("%v was published although the namespace's answers imply its verdict", target)
		}
		if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fixture finished in its opening batch")
	}
	applied, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	logPath := st.logPath(s.ID())
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// checkLabels holds every recorded answer's one label to its bytes:
	// the deduced form for target and any other answer from worker -1,
	// the crowd form for the rest. It returns how many of each it saw.
	type rawRec struct {
		U1     kb.EntityID       `json:"u1"`
		U2     kb.EntityID       `json:"u2"`
		Labels []json.RawMessage `json:"labels"`
	}
	checkLabels := func(where string, recs []rawRec) (crowdSeen, deducedSeen int) {
		t.Helper()
		for _, rec := range recs {
			q := pair.Pair{U1: rec.U1, U2: rec.U2}
			wantLabel := crowd(gold.IsMatch(q))
			if q == target || len(rec.Labels) == 1 && bytes.HasPrefix(rec.Labels[0], []byte(`{"worker":-1,`)) {
				wantLabel = deduced
				deducedSeen++
			} else {
				crowdSeen++
			}
			if len(rec.Labels) != 1 || string(rec.Labels[0]) != wantLabel {
				t.Errorf("%s: answer %v has labels %s, want [%s]", where, q, rec.Labels, wantLabel)
			}
		}
		return crowdSeen, deducedSeen
	}
	for _, sn := range []struct {
		name          string
		data          []byte
		crowd, deduce bool
	}{{"snapshot after the drain", snapshot, false, true}, {"snapshot after the crowd", applied, true, true}} {
		var snap struct{ Applied, Pending []rawRec }
		if err := json.Unmarshal(sn.data, &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Pending) > 0 {
			t.Errorf("%s buffers %d answers; the tier answers only at the cursor", sn.name, len(snap.Pending))
		}
		c, d := checkLabels(sn.name, append(snap.Applied, snap.Pending...))
		if (c > 0) != sn.crowd || (d > 0) != sn.deduce {
			t.Errorf("%s holds %d crowd and %d deduced answers", sn.name, c, d)
		}
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(logBytes, []byte("\n")), []byte("\n"))
	var logged []rawRec
	for _, line := range lines[1:] { // line 0 is the create record
		var l struct{ Answer *rawRec }
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatal(err)
		}
		if l.Answer != nil {
			logged = append(logged, *l.Answer)
		}
	}
	if c, d := checkLabels("log", logged); c == 0 || d == 0 {
		t.Errorf("log holds %d crowd and %d deduced answers, want some of each", c, d)
	}

	// The same data directory in the older form: the deduced label also
	// carries the source marker.
	parentDir := filepath.Join(t.TempDir(), "parent")
	if err := os.CopyFS(parentDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, logPath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.ReplaceAll(logBytes, []byte(deduced), []byte(parentDeduced))
	if err := os.WriteFile(filepath.Join(parentDir, rel), old, 0o644); err != nil {
		t.Fatal(err)
	}

	// Both directories recover, finish like the synchronous run and snapshot
	// to the same bytes.
	var final [][]byte
	for _, d := range []string{dir, parentDir} {
		st, err := NewDiskStore(d)
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewManagerStore(st)
		recovered, err := mgr.Recover(func(string, []byte) (*core.Prepared, string, error) { return prep(), "books", nil })
		if err != nil || len(recovered) != 1 {
			t.Fatalf("%s: recovered %v, %v; want one session", d, recovered, err)
		}
		r, _ := mgr.Get(recovered[0])
		drive(t, r, gold.IsMatch)
		assertResultsIdentical(t, want, r.Result())
		data, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		final = append(final, data)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(final[0], final[1]) {
		t.Errorf("a log in the older form recovered to a different session:\n new %s\n old %s", final[0], final[1])
	}
	if bytes.Contains(final[1], []byte(`"source"`)) {
		t.Errorf("the recovered session re-encodes the source marker: %s", final[1])
	}

	// The mid-run snapshot in the older form restores to the same bytes.
	oldSnap := strings.ReplaceAll(string(snapshot), deduced, parentDeduced)
	if oldSnap == string(snapshot) {
		t.Fatal("snapshot holds no deduced label")
	}
	decoded, err := DecodeSnapshot([]byte(oldSnap))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(prep(), nil, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, snapshot) {
		t.Errorf("a snapshot in the older form restored to different bytes (%v):\n got %s\nwant %s", err, again, snapshot)
	}
}
