package kb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sealSnapshot wraps payload in a valid header and CRC, so the fuzzer's
// mutations reach the payload decoder instead of dying at the checksum.
func sealSnapshot(payload []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(payload)+trailerLen)
	copy(out, snapshotMagic)
	binary.LittleEndian.PutUint32(out[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// FuzzReadSnapshot: ReadSnapshot never panics, and a KB it accepts writes
// a snapshot that reads back to the same KB and the same bytes.
func FuzzReadSnapshot(f *testing.F) {
	for _, n := range []int{0, 1, 4} {
		var buf bytes.Buffer
		if err := randSnapKB(rand.New(rand.NewSource(int64(n))), "fuzz", n).WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshot(t, data)
		if len(data) >= headerLen+trailerLen {
			checkSnapshot(t, sealSnapshot(data[headerLen:len(data)-trailerLen]))
		}
	})
}

func checkSnapshot(t *testing.T, data []byte) {
	k, err := ReadSnapshot(data)
	if err != nil {
		return
	}
	var first, second bytes.Buffer
	if err := k.WriteSnapshot(&first); err != nil {
		t.Fatalf("an accepted snapshot does not write: %v", err)
	}
	again, err := ReadSnapshot(first.Bytes())
	if err != nil {
		t.Fatalf("a written snapshot does not read: %v", err)
	}
	if err := again.WriteSnapshot(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("rewriting the reread KB changed its snapshot (error %v)", err)
	}
	if dumpOf(k) != dumpOf(again) {
		t.Fatalf("snapshot round trip changed the KB:\n%s\n---\n%s", dumpOf(k), dumpOf(again))
	}
}

// FuzzReadTSV: ReadTSV never panics, and a KB it accepts writes TSV that
// reads back to a KB writing the same text.
func FuzzReadTSV(f *testing.F) {
	var buf bytes.Buffer
	if err := buildSample().WriteTSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# kb\tk\nA\te\ta\tv\nR\te\tr\tf\nE\tf\t\t\n")
	f.Add("E\tx\ty\tz\r\n# comment\n\nR\tx\tr\tx\n")
	f.Fuzz(func(t *testing.T, text string) {
		k, err := ReadTSV(bytes.NewBufferString(text))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := k.WriteTSV(&first); err != nil {
			t.Fatalf("an accepted TSV does not write: %v", err)
		}
		again, err := ReadTSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written TSV does not read: %v\n%s", err, first.String())
		}
		// TSV carries no attribute or relationship IDs — they renumber in
		// order of first use, which reorders an entity's A and R records —
		// so two KBs are TSV-equal when they write the same set of lines.
		if err := again.WriteTSV(&second); err != nil || sortedLines(first.String()) != sortedLines(second.String()) {
			t.Fatalf("TSV round trip changed the KB (error %v):\n%s\n---\n%s", err, first.String(), second.String())
		}
	})
}

func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
