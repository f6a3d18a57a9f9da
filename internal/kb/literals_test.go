package kb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkLiterals holds every attribute value set of k to its literal IDs:
// AttrLits(u, a) is as long as AttrValues(u, a), and Literal of its i-th
// ID is the i-th value.
func checkLiterals(t *testing.T, what string, k *KB) {
	t.Helper()
	seen := 0
	for u := range EntityID(k.NumEntities()) {
		for _, a := range k.Attrs(u) {
			vals, ids := k.AttrValues(u, a), k.AttrLits(u, a)
			if len(ids) != len(vals) {
				t.Fatalf("%s: entity %d, attr %d: %d literal IDs for %d values", what, u, a, len(ids), len(vals))
			}
			for i, id := range ids {
				if int(id) >= k.NumLiterals() || k.Literal(id) != vals[i] {
					t.Fatalf("%s: entity %d, attr %d: literal %d of %d reads %q, want %q", what, u, a, id, k.NumLiterals(), k.Literal(id), vals[i])
				}
			}
			seen += len(ids)
		}
		if ids := k.AttrLits(u, AttrID(k.NumAttrs())); len(ids) != 0 {
			t.Fatalf("%s: entity %d has literal IDs %v on an attribute it lacks", what, u, ids)
		}
	}
	if seen != k.Stats().AttrTriples {
		t.Fatalf("%s: %d literal IDs for %d attribute triples", what, seen, k.Stats().AttrTriples)
	}
}

// snapPayload lays out a version-1 snapshot payload from its parts: the
// six string tables in order, then the triples.
func snapPayload(tables [6][]string, nEntities int, attrs, rels [][3]uint32) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 4)
	b = append(b, "test"...)
	for _, n := range []int{nEntities, len(tables[3]), len(tables[4]), len(tables[5])} {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(attrs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(rels)))
	for _, tab := range tables {
		t := pack(tab)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(t.blob)))
		b = append(b, t.blob...)
		for _, o := range t.off {
			b = binary.LittleEndian.AppendUint32(b, o)
		}
	}
	for _, ts := range [][][3]uint32{attrs, rels} {
		for _, tr := range ts {
			for _, w := range tr {
				b = binary.LittleEndian.AppendUint32(b, w)
			}
		}
	}
	return b
}

// TestLiteralIDsNameAttrValues: on built, TSV-read and decoded KBs, and on
// two hostile snapshots ReadSnapshot accepts — one whose dictionary
// repeats a string, one with entries no triple uses — every value's
// literal ID reads back the value.
func TestLiteralIDsNameAttrValues(t *testing.T) {
	built := randSnapKB(rand.New(rand.NewSource(9)), "built", 60)
	var snap, tsv bytes.Buffer
	if err := built.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	read, err := ReadTSV(&tsv)
	if err != nil {
		t.Fatal(err)
	}
	names := [3][]string{{"e0", "e1"}, {"", ""}, {"", ""}}
	repeated, err := ReadSnapshot(sealSnapshot(snapPayload(
		[6][]string{names[0], names[1], names[2], {"a"}, {"r"}, {"x", "y", "x"}}, 2,
		[][3]uint32{{0, 0, 2}, {0, 0, 1}, {1, 0, 0}}, [][3]uint32{{0, 0, 1}})))
	if err != nil {
		t.Fatalf("a dictionary that repeats a string: %v", err)
	}
	unused, err := ReadSnapshot(sealSnapshot(snapPayload(
		[6][]string{names[0], names[1], names[2], {"a"}, {"r"}, {"a", "unused", "b", "also unused"}}, 2,
		[][3]uint32{{0, 0, 0}, {0, 0, 2}, {1, 0, 2}}, nil)))
	if err != nil {
		t.Fatalf("a dictionary with unused entries: %v", err)
	}
	for _, c := range []struct {
		what string
		k    *KB
	}{{"built", built}, {"TSV-read", read}, {"decoded", decoded}, {"repeated dictionary string", repeated}, {"unused dictionary entries", unused}} {
		checkLiterals(t, c.what, c.k)
	}
	if ids := repeated.AttrLits(0, 0); len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("repeated dictionary string: entity 0's literal IDs are %v, want the snapshot's [2 1]", ids)
	}
	if unused.NumLiterals() != 4 {
		t.Fatalf("unused dictionary entries: %d literals, want the snapshot's 4", unused.NumLiterals())
	}
}
