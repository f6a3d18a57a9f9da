package kb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// hostileKB is a KB past decodeFloor, so that ReadSnapshot decodes its
// sections on the pool, laid out so that resealing can break two sections
// at once: entity "ent-two" can take the name "ent-one", and entity
// "ent-one" holds "val-b" and "val-c" on attr0, which "val-a" for "val-c"
// puts out of canonical order (attribute triple 1).
func hostileKB(t *testing.T) []byte {
	t.Helper()
	k := New("hostile")
	a, rel := k.AddAttr("attr0"), k.AddRel("rel0")
	one, two := k.AddEntity("ent-one"), k.AddEntity("ent-two")
	k.AddAttrTriple(one, a, "val-b")
	k.AddAttrTriple(one, a, "val-c")
	for i := range decodeFloor {
		u := k.AddEntity(fmt.Sprintf("filler-%05d", i))
		k.AddAttrTriple(u, a, fmt.Sprintf("value %d", i))
		k.AddRelTriple(u, rel, two)
	}
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// outOfRangeRel returns snap with its last relationship triple's object
// moved out of range, resealed.
func outOfRangeRel(snap []byte) []byte {
	out := bytes.Clone(snap)
	end := len(out) - trailerLen
	binary.LittleEndian.PutUint32(out[end-4:], 1<<31)
	binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[headerLen:end]))
	return out
}

// TestHostileSnapshotKeepsItsError: a snapshot broken in two sections
// reports the earlier section's error — the one a serial decode meets
// first — however the side-by-side decode is scheduled.
func TestHostileSnapshotKeepsItsError(t *testing.T) {
	snap := hostileKB(t)
	if _, err := ReadSnapshot(snap); err != nil {
		t.Fatalf("the intact snapshot: %v", err)
	}
	const (
		dupName   = `kb: snapshot: duplicate entity name "ent-one"`
		attrOrder = "kb: snapshot: attr triple 1 out of canonical order"
	)
	dup := resealed(t, snap, "ent-two", "ent-one")
	badAttr := resealed(t, snap, "val-c", "val-a")
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"duplicate name alone", dup, dupName},
		{"attribute order alone", badAttr, attrOrder},
		{"duplicate name and attribute order", resealed(t, dup, "val-c", "val-a"), dupName},
		{"attribute order and relationship range", outOfRangeRel(badAttr), attrOrder},
	} {
		for range 20 {
			if _, err := ReadSnapshot(c.data); err == nil || err.Error() != c.want {
				t.Fatalf("%s: error %v, want %q", c.name, err, c.want)
			}
		}
	}
	if _, err := ReadSnapshot(outOfRangeRel(snap)); err == nil {
		t.Fatal("an out-of-range relationship triple was accepted")
	}
}

// TestGrainsMatchSerial: the decode gives the serial KB, and the serial
// error, whether its sections run side by side on the pool or in turn:
// on random KBs, and on every single-byte flip of one, resealed so that
// the flip reaches the section decoders.
func TestGrainsMatchSerial(t *testing.T) {
	defer func(f int) { decodeFloor = f }(decodeFloor)
	read := func(floor int, data []byte) string {
		decodeFloor = floor
		k, err := ReadSnapshot(data)
		if err != nil {
			return "error: " + err.Error()
		}
		return dumpOf(k)
	}
	r := rand.New(rand.NewSource(61))
	var snap []byte
	for n := range 20 {
		var buf bytes.Buffer
		if err := randSnapKB(r, "grains", n).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snap = buf.Bytes()
		if got, want := read(0, snap), read(1<<62, snap); got != want {
			t.Fatalf("%d entities: side by side %q, in turn %q", n, got, want)
		}
	}
	for i := headerLen; i < len(snap)-trailerLen; i++ {
		bad := bytes.Clone(snap[headerLen : len(snap)-trailerLen])
		bad[i-headerLen] ^= 0x40
		bad = sealSnapshot(bad)
		if got, want := read(0, bad), read(1<<62, bad); got != want {
			t.Fatalf("flip at %d: side by side %q, in turn %q", i, got, want)
		}
	}
}
