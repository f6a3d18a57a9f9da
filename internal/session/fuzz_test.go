package session

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/pair"
)

// FuzzRestoreSession fuzzes the durable inputs a restore consumes: the
// snapshot JSON and an answer log (the WAL's record array). Whatever
// the bytes, Restore must never panic; and any snapshot it accepts must
// round-trip — the restored session's re-snapshot is canonical, so
// restoring *that* must succeed and re-snapshot to identical bytes.
// The corpus is seeded with real snapshots of the example fixture (the
// quickstart/asynccrowd books world) taken mid-run with a buffered
// out-of-order answer, at completion, and fresh.
func FuzzRestoreSession(f *testing.F) {
	k1, k2, gold := bookWorld(3, 51)
	prep := func() *core.Prepared { return core.Prepare(k1, k2, testConfig(nil)) }

	// Real mid-run snapshot: first batch applied, plus the last question
	// of the second batch delivered out of order (pending).
	s := New("seed-mid", prep(), nil)
	for _, q := range s.NextBatch() {
		if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			f.Fatal(err)
		}
	}
	second := s.NextBatch()
	if len(second) > 1 {
		last := second[len(second)-1]
		if err := s.Deliver(last.ID, oracleLabels(gold, last.Pair)); err != nil {
			f.Fatal(err)
		}
	}
	snapMid, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	// The answers still to come, as a WAL-shaped log.
	var rest []AnswerRec
	for _, q := range second {
		rest = append(rest, AnswerRec{U1: q.Pair.U1, U2: q.Pair.U2, Labels: oracleLabels(gold, q.Pair)})
	}
	walSeed, err := json.Marshal(rest)
	if err != nil {
		f.Fatal(err)
	}

	// Real completed snapshot.
	done := New("seed-done", prep(), nil)
	for !done.Done() {
		for _, q := range done.NextBatch() {
			if err := done.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
				f.Fatal(err)
			}
		}
	}
	snapDone, err := done.Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	// Real fresh snapshot.
	snapFresh, err := New("seed-fresh", prep(), nil).Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(snapMid, walSeed)
	f.Add(snapDone, []byte(`[]`))
	f.Add(snapFresh, walSeed)
	f.Add([]byte(`{"version":1,"id":"x","applied":[{"u1":0,"u2":0,"labels":null}]}`), []byte(`null`))
	f.Add([]byte(`{"version":1,"id":"s","shards":7,"shard_sizes":[1,2]}`), []byte(`[{"u1":-1,"u2":99,"labels":[{"worker":0,"quality":9,"match":true}]}]`))

	f.Fuzz(func(t *testing.T, snapJSON, walJSON []byte) {
		snap, err := DecodeSnapshot(snapJSON)
		if err != nil {
			return // malformed bytes must error, never panic
		}
		restored, err := Restore(prep(), nil, snap)
		if err != nil {
			return // divergent snapshots must be rejected, never panic
		}

		// Accepted input: the re-snapshot is the canonical form and must
		// be a fixed point of restore ∘ snapshot.
		canon, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot of an accepted snapshot failed to encode: %v", err)
		}
		snap2, err := DecodeSnapshot(canon)
		if err != nil {
			t.Fatalf("canonical snapshot does not decode: %v", err)
		}
		again, err := Restore(prep(), nil, snap2)
		if err != nil {
			t.Fatalf("canonical snapshot does not restore: %v", err)
		}
		canon2, err := again.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("round-trip diverged:\n first %s\nsecond %s", canon, canon2)
		}

		// Feed the fuzzed answer log on top; deliveries may be rejected
		// but must never panic, and the session must stay snapshotable.
		var recs []AnswerRec
		if json.Unmarshal(walJSON, &recs) != nil {
			return
		}
		for _, rec := range recs {
			q := pair.Pair{U1: kb.EntityID(rec.U1), U2: kb.EntityID(rec.U2)}
			_ = restored.DeliverPair(q, rec.Labels)
		}
		if _, err := restored.Snapshot(); err != nil {
			t.Fatalf("snapshot after answer-log replay failed: %v", err)
		}
	})
}

// FuzzParseQuestionID holds the question-ID parser to fail-closed: an
// accepted id is exactly what QuestionID prints for the pair it names,
// both entities non-negative, so no second spelling can answer a
// question; and every non-negative int32 pair round-trips through
// QuestionID. The seeds are the aliases a lenient parser accepts: a U1
// wrapped past int32, one past int32's range, a sign, a leading zero.
func FuzzParseQuestionID(f *testing.F) {
	for _, id := range []string{"4294967297-0", "2147483648-5", "+1-0", "01-0", "1-+0", "0-0", "12-7"} {
		f.Add(id, int32(1), int32(0))
	}
	f.Add("2147483647-2147483647", int32(math.MaxInt32), int32(math.MaxInt32))
	f.Fuzz(func(t *testing.T, id string, u1, u2 int32) {
		if p, err := ParseQuestionID(id); err == nil {
			if p.U1 < 0 || p.U2 < 0 || QuestionID(p) != id {
				t.Fatalf("ParseQuestionID(%q) accepted %+v (canonical %q)", id, p, QuestionID(p))
			}
		}
		want := pair.Pair{U1: kb.EntityID(u1 & math.MaxInt32), U2: kb.EntityID(u2 & math.MaxInt32)}
		if got, err := ParseQuestionID(QuestionID(want)); err != nil || got != want {
			t.Fatalf("ParseQuestionID(QuestionID(%+v)) = %+v, %v", want, got, err)
		}
	})
}

// FuzzDeliverAnswers holds the wire answer path to fail-closed: whatever
// question ID and labels JSON a client posts, Deliver never panics; an
// answer it rejects leaves the session's snapshot bytes unchanged; and
// one it accepts is part of a snapshot that restores, through
// DecodeSnapshot and Restore, to identical snapshot bytes. Every input
// meets a fresh session over one shared pipeline, then a fresh Deduce-on
// session joined to a namespace cache that holds a sibling's answer to
// the second question of its opening batch, so an accepted answer at the
// cursor lets the namespace tier answer the next one. The seeds answer
// the first question of the opening batch and, out of order, the last:
// with oracle labels, and with the labels ErrBadLabel and ErrNoLabels
// refuse.
func FuzzDeliverAnswers(f *testing.F) {
	k1, k2, gold := bookWorld(3, 51)
	p := core.Prepare(k1, k2, testConfig(nil))
	pd := core.Prepare(k1, k2, testConfig(func(c *core.Config) { c.Deduce = true }))
	sibling := New("sibling", pd, nil).NextBatch()[1].Pair
	batch := New("seed", p, nil).NextBatch()
	for _, q := range []Question{batch[0], batch[len(batch)-1]} {
		good, err := json.Marshal(oracleLabels(gold, q.Pair))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.ID, good)
		f.Add(q.ID, []byte(`[{"worker":-1,"quality":0.999,"match":true}]`))
		f.Add(q.ID, []byte(`[{"worker":0,"quality":0,"match":true},{"worker":1,"quality":1.5}]`))
		f.Add(q.ID, []byte(`[]`))
	}
	f.Add("0-0", []byte(`[{"worker":0,"quality":1,"match":false,"source":"deduced"}]`))
	f.Add("01-0", []byte(`null`))

	f.Fuzz(func(t *testing.T, id string, labelsJSON []byte) {
		var labels []Label
		if json.Unmarshal(labelsJSON, &labels) != nil {
			return
		}
		cache := NewCache()
		cache.put(sibling, oracleLabels(gold, sibling))
		for _, s := range []*Session{New("fuzz", p, nil), New("fuzz", pd, cache)} {
			before, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			deliverErr := s.Deliver(id, labels)
			after, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if deliverErr != nil {
				if !bytes.Equal(after, before) {
					t.Fatalf("rejected answer (%v) changed the snapshot:\nbefore %s\n after %s", deliverErr, before, after)
				}
				continue
			}
			snap, err := DecodeSnapshot(after)
			if err != nil {
				t.Fatalf("snapshot after an accepted answer does not decode: %v", err)
			}
			restored, err := Restore(s.Prepared(), nil, snap)
			if err != nil {
				t.Fatalf("snapshot after an accepted answer does not restore: %v", err)
			}
			if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, after) {
				t.Fatalf("restored snapshot diverged (%v):\n first %s\nsecond %s", err, after, again)
			}
		}
	})
}

// FuzzDiskStoreGet holds the <id>.log reader to fail-closed: whatever
// bytes a session's log holds, DiskStore.Get never panics; and a log it
// accepts as open takes one more answer — the append truncates a torn
// tail first — and then reads back with exactly that answer added after
// the records it held.
func FuzzDiskStoreGet(f *testing.F) {
	const id = "s1"
	ans := AnswerRec{U1: 3, U2: 4, Labels: []Label{{WorkerID: 1, Quality: 0.9, IsMatch: true}}}
	create := `{"meta":"e30=","snapshot":{"version":1,"id":"s1"}}` + "\n"
	answer := `{"seq":0,"answer":{"u1":3,"u2":4,"labels":[{"worker":1,"quality":0.9,"match":true}]}}` + "\n"
	for _, seed := range []string{"", "\n", create, create + answer, create + answer + `{"seq":1,"done":true}` + "\n",
		create + answer + `{"seq":1,"answer":{"u1":`, create + `{"seq":0}` + "\n"} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := os.WriteFile(d.logPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := d.Get(id)
		if err != nil || rec.Done {
			return // corruption must error, never panic; a done log takes no answer
		}
		if err := d.AppendAnswer(id, len(rec.Log), ans, false); err != nil {
			t.Fatalf("append to an accepted open log: %v", err)
		}
		after, err := d.Get(id)
		if err != nil {
			t.Fatalf("an accepted log no longer reads after one append: %v", err)
		}
		want := append(rec.Log, LogRec{Seq: len(rec.Log), Answer: ans})
		if after.Done || !reflect.DeepEqual(after.Log, want) {
			t.Fatalf("after one append the log reads %+v (done %v), want %+v", after.Log, after.Done, want)
		}
	})
}
