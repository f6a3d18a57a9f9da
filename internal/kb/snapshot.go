package kb

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/par"
)

// The binary snapshot format is documented in doc.go ("The binary KB
// snapshot format"). Constants here pin the on-disk contract; bump
// snapshotVersion when the payload layout changes and teach ReadSnapshot
// to either translate or reject old versions explicitly.
const (
	snapshotMagic   = "REMPKB1\n"
	snapshotVersion = 1
	headerLen       = 32 // magic(8) + version(4) + flags(4) + payloadLen(8) + reserved(8)
	trailerLen      = 4  // crc32 (IEEE) of the payload
)

// SnapshotExt is the conventional file extension for binary KB snapshots.
const SnapshotExt = ".snap"

// snapWriter streams little-endian payload sections through a CRC.
type snapWriter struct {
	w       *bufio.Writer
	crc     uint32
	scratch [8]byte
	err     error
}

func (sw *snapWriter) bytes(b []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, b)
	_, sw.err = sw.w.Write(b)
}

func (sw *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(sw.scratch[:4], v)
	sw.bytes(sw.scratch[:4])
}

func (sw *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.scratch[:8], v)
	sw.bytes(sw.scratch[:8])
}

// strTab writes a string table: u64 blob length, the concatenated
// bytes, then n+1 u32 offsets delimiting each entry within the blob.
func (sw *snapWriter) strTab(t *strTab) {
	sw.u64(uint64(len(t.blob)))
	sw.bytes([]byte(t.blob))
	for _, o := range t.off {
		sw.u32(o)
	}
}

// WriteSnapshot serializes the KB in the versioned binary snapshot format
// (see doc.go): a fixed header, a little-endian payload of string tables
// and dense triple arrays, and a CRC-32 trailer. The payload streams
// through w in one pass; nothing is buffered beyond bufio. Every section
// length is known up front, so the header declares the payload length.
func (k *KB) WriteSnapshot(w io.Writer) error {
	k.Freeze()
	// The literal dictionary numbers values in first use over the
	// canonical (entity, attribute, value) order k.attrs.val is in.
	values, ids := dictionary(len(k.attrs.val), func(i int) string { return k.attrs.val[i] })
	dict := pack(values)
	tables := []*strTab{&k.names, &k.labels, &k.types, &k.attrNames, &k.relNames, &dict}
	payload := 4 + uint64(len(k.name)) + 4*4 + 8*2 + 12*uint64(len(k.attrs.val)+len(k.out.val))
	for _, t := range tables {
		payload += 8 + uint64(len(t.blob)) + 4*uint64(len(t.off)) // blob length, blob, offsets
	}
	bw := bufio.NewWriterSize(w, 1<<16)

	var hdr [headerLen]byte
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapshotVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], payload)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("kb: snapshot header: %w", err)
	}

	sw := &snapWriter{w: bw}
	sw.u32(uint32(len(k.name)))
	sw.bytes([]byte(k.name))
	sw.u32(uint32(k.names.len()))
	sw.u32(uint32(k.attrNames.len()))
	sw.u32(uint32(k.relNames.len()))
	sw.u32(uint32(dict.len()))
	sw.u64(uint64(len(k.attrs.val)))
	sw.u64(uint64(len(k.out.val)))
	for _, t := range tables {
		sw.strTab(t)
	}
	i := 0
	k.attrs.each(func(u EntityID, a AttrID, _ string) {
		sw.u32(uint32(u))
		sw.u32(uint32(a))
		sw.u32(uint32(ids[i]))
		i++
	})
	k.out.each(func(u EntityID, r RelID, v EntityID) {
		sw.u32(uint32(u))
		sw.u32(uint32(r))
		sw.u32(uint32(v))
	})
	if sw.err != nil {
		return fmt.Errorf("kb: snapshot payload: %w", sw.err)
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], sw.crc)
	if _, err := bw.Write(tr[:]); err != nil {
		return fmt.Errorf("kb: snapshot trailer: %w", err)
	}
	return bw.Flush()
}

// snapReader decodes payload sections with bounds checking; the first
// violation latches an error and every later read returns zero values.
type snapReader struct {
	data []byte
	pos  int
	err  error
}

func (sr *snapReader) fail(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf("kb: snapshot: "+format, args...)
	}
}

func (sr *snapReader) take(n int) []byte {
	if sr.err != nil {
		return nil
	}
	if n < 0 || sr.pos+n > len(sr.data) {
		sr.fail("truncated payload: need %d bytes at offset %d of %d", n, sr.pos, len(sr.data))
		return nil
	}
	b := sr.data[sr.pos : sr.pos+n]
	sr.pos += n
	return b
}

func (sr *snapReader) u32() uint32 {
	b := sr.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (sr *snapReader) u64() uint64 {
	b := sr.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// strTab reads a table of n strings: one copy of the blob, which every
// entry slices, and its n+1 offsets.
func (sr *snapReader) strTab(n int) strTab {
	blobLen := sr.u64()
	if sr.err != nil {
		return strTab{}
	}
	if blobLen > uint64(len(sr.data)-sr.pos) {
		sr.fail("string blob of %d bytes overruns payload", blobLen)
		return strTab{}
	}
	t := strTab{blob: string(sr.take(int(blobLen))), off: make([]uint32, n+1)}
	// The offsets are decoded straight from the bytes that are there; a
	// short table fails at its first missing offset, as a read of one
	// offset at a time would.
	whole := min(n+1, (len(sr.data)-sr.pos)/4)
	raw := sr.take(4 * whole)
	for i, prev := 0, uint32(0); i < whole && sr.err == nil; i++ {
		if t.off[i] = binary.LittleEndian.Uint32(raw[4*i:]); t.off[i] < prev || uint64(t.off[i]) > blobLen || i == 0 && t.off[i] != 0 {
			sr.fail("string table offset %d out of order (prev %d, blob %d)", t.off[i], prev, blobLen)
		}
		prev = t.off[i]
	}
	if whole <= n {
		sr.take(4)
	}
	if sr.err == nil && uint64(t.off[n]) != blobLen {
		sr.fail("string table covers %d of %d blob bytes", t.off[n], blobLen)
	}
	return t
}

// ReadSnapshot decodes a binary KB snapshot produced by WriteSnapshot,
// validating the magic, version, zero flags and reserved bytes, declared
// payload length, CRC, every section bound, name uniqueness and the
// canonical triple ordering before trusting any of it. The triples fill
// the frozen arrays directly. Past the envelope and the string tables it
// decodes three independent sections side by side on the process's pool
// — the name indexes, the attribute triples, the relationship triples —
// and a file broken in several reports the first section's error, the
// one a serial decode meets first.
func ReadSnapshot(data []byte) (*KB, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("kb: snapshot: %d bytes is shorter than the %d-byte envelope", len(data), headerLen+trailerLen)
	}
	if string(data[:8]) != snapshotMagic {
		return nil, fmt.Errorf("kb: snapshot: bad magic %q (not a Remp KB snapshot)", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapshotVersion {
		return nil, fmt.Errorf("kb: snapshot: unsupported version %d (this build reads version %d)", v, snapshotVersion)
	}
	if f, r := binary.LittleEndian.Uint32(data[12:16]), binary.LittleEndian.Uint64(data[24:32]); f != 0 || r != 0 {
		return nil, fmt.Errorf("kb: snapshot: flags %#x and reserved bytes %#x must be zero in version %d", f, r, snapshotVersion)
	}
	payloadLen := binary.LittleEndian.Uint64(data[16:24])
	if payloadLen != uint64(len(data)-headerLen-trailerLen) {
		return nil, fmt.Errorf("kb: snapshot: header declares %d payload bytes, file carries %d", payloadLen, len(data)-headerLen-trailerLen)
	}
	payload := data[headerLen : headerLen+int(payloadLen)]
	wantCRC := binary.LittleEndian.Uint32(data[headerLen+int(payloadLen):])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("kb: snapshot: payload CRC mismatch (want %08x, got %08x): file is corrupt", wantCRC, got)
	}

	sr := &snapReader{data: payload}
	name := string(sr.take(int(sr.u32())))
	nEntities := int(sr.u32())
	nAttrs := int(sr.u32())
	nRels := int(sr.u32())
	nValues := int(sr.u32())
	nAttrTriples := sr.u64()
	nRelTriples := sr.u64()
	if sr.err != nil {
		return nil, sr.err
	}
	// Each triple count is bounded alone first, so the sum cannot overflow.
	limit := uint64(len(payload))
	if nAttrTriples > limit || nRelTriples > limit || 12*(nAttrTriples+nRelTriples)+
		strTableSizeBound(nEntities)*3+strTableSizeBound(nAttrs)+strTableSizeBound(nRels)+strTableSizeBound(nValues) > limit {
		return nil, fmt.Errorf("kb: snapshot: declared counts need more than the %d payload bytes", limit)
	}

	k := &KB{name: name}
	k.frozen.Store(true)
	k.names = sr.strTab(nEntities)
	k.labels = sr.strTab(nEntities)
	k.types = sr.strTab(nEntities)
	k.attrNames = sr.strTab(nAttrs)
	k.relNames = sr.strTab(nRels)
	values := sr.strTab(nValues)
	attrRaw := sr.take(12 * int(nAttrTriples))
	relRaw := sr.take(12 * int(nRelTriples))
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.pos != len(payload) {
		return nil, fmt.Errorf("kb: snapshot: %d trailing payload bytes", len(payload)-sr.pos)
	}
	// The three sections are independent, so they decode side by side
	// (serially below decodeFloor triples); each reports its first error,
	// and the earliest section's wins, as in a serial decode.
	var r par.Runner
	if nAttrTriples+nRelTriples >= uint64(decodeFloor) {
		r = par.Pool()
	}
	var errs [3]error
	par.RunAll(r, len(errs), func(s int) {
		switch s {
		case 0:
			errs[s] = k.decodeNames()
		case 1:
			errs[s] = k.decodeAttrs(attrRaw, values, nEntities, nAttrs, nValues)
		case 2:
			errs[s] = k.decodeRels(relRaw, nEntities, nRels)
		}
	})
	if err := cmp.Or(errs[:]...); err != nil {
		return nil, err
	}
	return k, nil
}

// decodeFloor is the fewest triples for which ReadSnapshot decodes its
// sections on the pool: a small KB decodes in less time than a helper
// takes to start. Tests move it; the result is the same either way.
var decodeFloor = 1 << 12

// word is the i-th little-endian u32 of raw.
func word(raw []byte, i int) uint32 { return binary.LittleEndian.Uint32(raw[4*i:]) }

// decodeNames indexes the entity names and checks that no entity,
// attribute or relationship name repeats.
func (k *KB) decodeNames() error {
	for _, t := range []struct {
		what string
		tab  *strTab
	}{{"entity", &k.names}, {"attribute", &k.attrNames}, {"relationship", &k.relNames}} {
		x, dup, ok := indexNames(t.tab)
		if !ok {
			return fmt.Errorf("kb: snapshot: duplicate %s name %q", t.what, dup)
		}
		if t.tab == &k.names {
			k.index = x
		}
	}
	return nil
}

// decodeAttrs validates the attribute triples and lays them out, keeping
// each value's dictionary index as its LitID. They arrive in canonical
// (entity, attribute, value) order — the order check doubles as the
// duplicate check — and are read twice: validated here, then counted and
// filled by newCSR.
func (k *KB) decodeAttrs(raw []byte, values strTab, nEntities, nAttrs, nValues int) error {
	m := len(raw) / 12
	k.lits, k.litOf = values, make([]LitID, m)
	for i := range m {
		u, a, vi := word(raw, 3*i), word(raw, 3*i+1), word(raw, 3*i+2)
		if int(u) >= nEntities || int(a) >= nAttrs || int(vi) >= nValues {
			return fmt.Errorf("kb: snapshot: attr triple %d (%d,%d,%d) out of range", i, u, a, vi)
		}
		k.litOf[i] = LitID(vi)
		if i > 0 {
			pu, pa := word(raw, 3*i-3), word(raw, 3*i-2)
			if cmp.Or(cmp.Compare(pu, u), cmp.Compare(pa, a), strings.Compare(values.at(int(word(raw, 3*i-1))), values.at(int(vi)))) >= 0 {
				return fmt.Errorf("kb: snapshot: attr triple %d out of canonical order", i)
			}
		}
	}
	k.attrs = newCSR(nEntities, m, func(i int) (EntityID, AttrID, string) {
		return EntityID(word(raw, 3*i)), AttrID(word(raw, 3*i+1)), values.at(int(k.litOf[i]))
	})
	return nil
}

// decodeRels validates the relationship triples, canonical and
// repeat-free like the attribute triples, and lays out both directions.
func (k *KB) decodeRels(raw []byte, nEntities, nRels int) error {
	rels := make([]RelTriple, len(raw)/12)
	for i := range rels {
		t := RelTriple{EntityID(word(raw, 3*i)), RelID(word(raw, 3*i+1)), EntityID(word(raw, 3*i+2))}
		if uint32(t.Subject) >= uint32(nEntities) || uint32(t.Rel) >= uint32(nRels) || uint32(t.Object) >= uint32(nEntities) {
			return fmt.Errorf("kb: snapshot: rel triple %d (%d,%d,%d) out of range", i, uint32(t.Subject), uint32(t.Rel), uint32(t.Object))
		}
		if i > 0 && compareRel(rels[i-1], t) >= 0 {
			return fmt.Errorf("kb: snapshot: rel triple %d out of canonical order", i)
		}
		rels[i] = t
	}
	k.setRels(nEntities, rels)
	return nil
}

// strTableSizeBound is the minimal byte size of an n-entry string table
// (empty blob), used for a cheap up-front sanity bound on declared counts.
func strTableSizeBound(n int) uint64 { return 8 + 4*uint64(n+1) }

// OpenSnapshot reads and validates a snapshot file written by
// WriteSnapshotFile. The whole file is read in one syscall and decoded
// from that buffer by ReadSnapshot: each string table is one copy of its
// blob, the triples fill the KB's arrays with no per-entity allocation,
// and the sections decode in parallel.
func OpenSnapshot(path string) (*KB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, err := ReadSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return k, nil
}

// WriteSnapshotFile atomically writes the KB snapshot to path using the
// repo's durable-write protocol: tmp file, fsync, rename over the target,
// directory fsync. A crash at any boundary leaves either the old file or
// the new one, never a torn snapshot.
func (k *KB) WriteSnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := k.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
