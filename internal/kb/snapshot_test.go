package kb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

var snapLiterals = []string{
	"", "hello world", "42", "3.14", "1999", "2001-05-03",
	"café naïve", "北京", "a\tb", "multi word value", "O'Neill", "🦀",
}

// randSnapKB builds a KB exercising every snapshot section: labels,
// types, multi-valued attributes, relations in both directions, unicode
// and empty strings.
func randSnapKB(r *rand.Rand, name string, n int) *KB {
	k := New(name)
	var attrs []AttrID
	for a := 0; a < 3; a++ {
		attrs = append(attrs, k.AddAttr(fmt.Sprintf("attr%d", a)))
	}
	var rels []RelID
	for i := 0; i < 2; i++ {
		rels = append(rels, k.AddRel(fmt.Sprintf("rel%d", i)))
	}
	for i := 0; i < n; i++ {
		u := k.AddEntity(fmt.Sprintf("%s:e%d", name, i))
		if r.Intn(4) > 0 {
			k.SetLabel(u, snapLiterals[r.Intn(len(snapLiterals))])
		}
		if r.Intn(3) == 0 {
			k.SetType(u, "type"+fmt.Sprint(r.Intn(3)))
		}
		for _, a := range attrs {
			for v := r.Intn(3); v > 0; v-- {
				k.AddAttrTriple(u, a, snapLiterals[r.Intn(len(snapLiterals))])
			}
		}
	}
	for i := 0; i < n*2; i++ {
		u := EntityID(r.Intn(n))
		v := EntityID(r.Intn(n))
		k.AddRelTriple(u, rels[r.Intn(len(rels))], v)
	}
	return k
}

// dumpOf canonicalizes a KB through its accessors, every string quoted:
// it covers every field the snapshot must preserve, the incoming lists
// too, and, unlike WriteTSV, takes strings holding tabs and line breaks.
func dumpOf(k *KB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q attrs", k.Name())
	for a := range k.NumAttrs() {
		fmt.Fprintf(&b, " %q", k.AttrName(AttrID(a)))
	}
	b.WriteString(" rels")
	for r := range k.NumRels() {
		fmt.Fprintf(&b, " %q", k.relNames.at(r))
	}
	for u := range EntityID(k.NumEntities()) {
		fmt.Fprintf(&b, "\nE %q %q %q", k.EntityName(u), k.Label(u), k.Type(u))
		for _, a := range k.Attrs(u) {
			fmt.Fprintf(&b, "\nA %d %q", a, k.AttrValues(u, a))
		}
		for _, r := range k.OutRels(u) {
			fmt.Fprintf(&b, "\nR %d %v", r, k.Out(u, r))
		}
		for _, r := range k.InRels(u) {
			fmt.Fprintf(&b, "\nI %d %v", r, k.In(u, r))
		}
	}
	return b.String()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 60} {
		r := rand.New(rand.NewSource(int64(n)))
		k := randSnapKB(r, "snapkb", n)
		var buf bytes.Buffer
		if err := k.WriteSnapshot(&buf); err != nil {
			t.Fatalf("n=%d WriteSnapshot: %v", n, err)
		}
		got, err := ReadSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d ReadSnapshot: %v", n, err)
		}
		if got.Name() != k.Name() {
			t.Fatalf("n=%d name %q != %q", n, got.Name(), k.Name())
		}
		if got.Stats().AttrTriples != k.Stats().AttrTriples || got.Stats().RelTriples != k.Stats().RelTriples {
			t.Fatalf("n=%d triple counts diverge", n)
		}
		if want, have := dumpOf(k), dumpOf(got); want != have {
			t.Fatalf("n=%d round trip diverges:\nwant:\n%s\ngot:\n%s", n, want, have)
		}
		// Index maps must be rebuilt: lookups by name resolve.
		for u := 0; u < k.NumEntities(); u++ {
			if got.Entity(k.EntityName(EntityID(u))) != EntityID(u) {
				t.Fatalf("n=%d entity index not rebuilt for %d", n, u)
			}
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	k := randSnapKB(r, "filekb", 20)
	path := filepath.Join(t.TempDir(), "kb"+SnapshotExt)
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if want, have := dumpOf(k), dumpOf(got); want != have {
		t.Fatal("file round trip diverges")
	}
}

// TestSnapshotRejectsCorruption: every single-byte flip and every
// truncation must fail loudly, never return a silently wrong KB.
func TestSnapshotRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	k := randSnapKB(r, "corrupt", 12)
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	good := buf.Bytes()
	want := dumpOf(k)

	if _, err := ReadSnapshot(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := ReadSnapshot(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadSnapshot(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	flipped := 0
	for i := 0; i < len(good); i++ {
		bad := append([]byte{}, good...)
		bad[i] ^= 0x40
		got, err := ReadSnapshot(bad)
		if err != nil {
			flipped++
			continue
		}
		// A flip the CRC cannot see does not exist; a flip that still
		// yields the same KB bytes would be a CRC collision miracle.
		if dumpOf(got) != want {
			t.Fatalf("flip at %d silently changed the KB", i)
		}
	}
	if flipped == 0 {
		t.Fatal("no byte flip was ever rejected")
	}
	// The header's flags (bytes 12–15) and reserved bytes (24–31) lie
	// outside the CRC: every bit of them must still be checked.
	for i := 12; i < headerLen; i++ {
		if i == 16 {
			i = 24
		}
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte{}, good...)
			bad[i] ^= 1 << bit
			if _, err := ReadSnapshot(bad); err == nil {
				t.Errorf("flip of bit %d in header byte %d accepted", bit, i)
			}
		}
	}
}

// resealed returns snap with every old replaced by new (same length) and
// the CRC recomputed, so only ReadSnapshot's own checks can object.
func resealed(t *testing.T, snap []byte, old, new string) []byte {
	t.Helper()
	if len(old) != len(new) || bytes.Count(snap, []byte(old)) == 0 {
		t.Fatalf("cannot replace %q by %q", old, new)
	}
	out := bytes.ReplaceAll(snap, []byte(old), []byte(new))
	payload := out[headerLen : len(out)-trailerLen]
	binary.LittleEndian.PutUint32(out[len(out)-trailerLen:], crc32.ChecksumIEEE(payload))
	return out
}

// TestSnapshotRejectsDuplicateNames: two entities, attributes or
// relationships of one name make a KB whose lookups would silently pick
// one; the reader refuses it.
func TestSnapshotRejectsDuplicateNames(t *testing.T) {
	k := New("dups")
	u, v := k.AddEntity("ent-one"), k.AddEntity("ent-two")
	k.AddAttrTriple(u, k.AddAttr("attr-one"), "x")
	k.AddAttrTriple(v, k.AddAttr("attr-two"), "y")
	k.AddRelTriple(u, k.AddRel("rel-one"), v)
	k.AddRelTriple(v, k.AddRel("rel-two"), u)
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(resealed(t, buf.Bytes(), "dups", "pups")); err != nil {
		t.Fatalf("resealing alone broke the snapshot: %v", err)
	}
	for _, what := range []string{"entity", "attribute", "relationship"} {
		prefix := map[string]string{"entity": "ent", "attribute": "attr", "relationship": "rel"}[what]
		_, err := ReadSnapshot(resealed(t, buf.Bytes(), prefix+"-two", prefix+"-one"))
		if err == nil || !strings.Contains(err.Error(), "duplicate "+what+" name") {
			t.Errorf("a repeated %s name: error %v", what, err)
		}
	}
}
