package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// The header of the binary shard format (see the package doc).
const (
	shardMagic   = "REMPSH1\n"
	shardVersion = 1
	shardHeader  = len(shardMagic) + 4
)

// Encode returns the shard in the binary shard format.
func (sh *Shard) Encode() []byte {
	g := sh.graph
	verts, labels, probs := g.Vertices(), g.Labels(), sh.prob.Probs()
	buf := make([]byte, 0, 64+28*len(verts)+14*g.NumEdges())
	uv := func(v int) { buf = binary.AppendUvarint(buf, uint64(v)) }
	f64 := func(f float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)) }
	flag := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = append(buf, shardMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, shardVersion)

	f64(sh.tau)
	uv(len(sh.strategy.Name()))
	buf = append(buf, sh.strategy.Name()...)
	uv(len(verts))
	for _, v := range verts {
		uv(int(v.U1))
		uv(int(v.U2))
	}
	for _, p := range sh.prior {
		f64(p)
	}
	flag(true) // global indexes follow
	for _, gi := range sh.globalIdx {
		uv(gi)
	}
	uv(len(labels))
	for _, label := range labels {
		uv(int(label.R1))
		uv(int(label.R2))
		flag(label.Inverse)
		// A label the fit lacks reads ε = 0.5 on both sides, as everywhere.
		e, ok := sh.est[label]
		if !ok {
			e.Eps1, e.Eps2 = 0.5, 0.5
		}
		f64(e.Eps1)
		f64(e.Eps2)
	}
	for i := range verts {
		to, label := g.OutIndexesAt(i), g.OutLabelsAt(i)
		uv(len(to))
		for k := range to {
			uv(int(to[k]))
			uv(int(label[k]))
		}
	}
	uv(len(probs))
	for _, p := range probs {
		f64(p)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[shardHeader:]))
}

// DecodeShard rebuilds a shard from its binary format. The result runs the
// same engine, bit for bit, as the shard that was encoded; it counts into no
// instrumentation (that belongs to the encoding process).
func DecodeShard(data []byte) (*Shard, error) {
	if len(data) < shardHeader+4 || string(data[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("core: not an encoded shard (%d bytes, no %q magic)", len(data), shardMagic[:len(shardMagic)-1])
	}
	if v := binary.LittleEndian.Uint32(data[len(shardMagic):]); v != shardVersion {
		return nil, fmt.Errorf("core: encoded shard has format version %d, this build reads %d", v, shardVersion)
	}
	r := shardReader{buf: data[shardHeader : len(data)-4]}
	if sum, want := crc32.ChecksumIEEE(r.buf), binary.LittleEndian.Uint32(data[len(data)-4:]); sum != want {
		return nil, fmt.Errorf("core: encoded shard fails its checksum (CRC-32 %08x, trailer %08x)", sum, want)
	}
	sh := &Shard{tau: r.f64()}
	if !(sh.tau > 0 && sh.tau <= 1) {
		r.fail("τ = %v outside (0, 1]", sh.tau)
	}
	var err error
	if sh.strategy, err = selection.ByName(string(r.take(r.count("strategy name", 1)))); err != nil {
		r.fail("%v", err)
	}
	// A vertex is at least its two entities, its prior and its row's degree.
	n := r.count("vertices", 11)
	verts := make([]pair.Pair, n)
	for i := range verts {
		verts[i] = pair.Pair{U1: kb.EntityID(r.uv("entity", math.MaxInt32)), U2: kb.EntityID(r.uv("entity", math.MaxInt32))}
	}
	sh.prior = make([]float64, n)
	for i := range sh.prior {
		sh.prior[i] = r.prob("prior")
	}
	if r.uv("global-index flag", 1) != 1 {
		r.fail("global-index flag 0: a shard carries its global vertex indexes")
	}
	sh.globalIdx = make([]int, n)
	for i := range sh.globalIdx {
		sh.globalIdx[i] = r.uv("global vertex index", math.MaxInt32)
	}
	var labels []ergraph.RelPair
	if nl := r.count("labels", 19); nl > 0 {
		labels = make([]ergraph.RelPair, nl)
		sh.est = make(map[ergraph.RelPair]consistency.Estimate, nl)
	}
	for i := range labels {
		labels[i] = ergraph.RelPair{R1: kb.RelID(r.uv("relationship", math.MaxInt32)), R2: kb.RelID(r.uv("relationship", math.MaxInt32)), Inverse: r.uv("inverse flag", 1) == 1}
		sh.est[labels[i]] = consistency.Estimate{Eps1: r.prob("consistency estimate"), Eps2: r.prob("consistency estimate")}
	}
	outStart := make([]int32, n+1)
	var outTo, outLabel []int32
	for i := 0; i < n; i++ {
		for k := r.count("edges", 2); k > 0; k-- {
			outTo = append(outTo, int32(r.uv("edge target", n-1)))
			outLabel = append(outLabel, int32(r.uv("edge label", len(labels)-1)))
		}
		outStart[i+1] = int32(len(outTo))
	}
	probs := make([]float64, r.count("probabilistic-graph slots", 8))
	for i := range probs {
		probs[i] = r.prob("edge probability")
	}
	if len(r.buf) != 0 {
		r.fail("%d bytes after the last field", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
	}
	if sh.graph, err = ergraph.FromRows(verts, labels, outStart, outTo, outLabel); err == nil {
		sh.prob, err = propagation.FromProbs(sh.graph, probs)
	}
	if err != nil {
		return nil, fmt.Errorf("core: decoding shard: %w", err)
	}
	return sh, nil
}

// shardReader consumes a shard payload front to back. The first failure
// sticks and every later read returns zero — a count included, so no loop
// runs on garbage — and the decoder checks once, at the end.
type shardReader struct {
	buf []byte
	err error
}

func (r *shardReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decoding shard: "+format, args...)
	}
}

// take returns the next n bytes, nil when the reader has failed.
func (r *shardReader) take(n int) []byte {
	if n > len(r.buf) {
		r.fail("truncated: %d bytes wanted, %d left", n, len(r.buf))
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// uv reads a varint that may not exceed max (a flag is the varint 0 or 1).
// A value has one encoding: padded varints are rejected.
func (r *shardReader) uv(what string, max int) int {
	v, w := binary.Uvarint(r.buf)
	switch {
	case r.err != nil:
	case w <= 0 || (w > 1 && r.buf[w-1] == 0):
		r.fail("truncated or overlong varint reading %s", what)
	case max < 0 || v > uint64(max):
		r.fail("%s %d out of range (at most %d)", what, v, max)
	default:
		r.buf = r.buf[w:]
		return int(v)
	}
	return 0
}

// count reads how many items of at least size bytes follow. No more can
// than fit in what remains, which bounds every allocation by the input.
func (r *shardReader) count(what string, size int) int { return r.uv(what, len(r.buf)/size) }

func (r *shardReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// prob reads a float that must lie in [0, 1].
func (r *shardReader) prob(what string) float64 {
	p := r.f64()
	if !(p >= 0 && p <= 1) { // NaN fails both
		r.fail("%s %v outside [0, 1]", what, p)
	}
	return p
}
