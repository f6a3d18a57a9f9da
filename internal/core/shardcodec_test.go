package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/datasets"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/selection"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// statePair drives a state over a shard and a state over the shard's
// decoded encoding through the same operations, and fails on the first
// output that differs in a single bit.
type statePair struct {
	t        *testing.T
	ref, got *ShardState
}

func (sp statePair) gather(when string) []selection.Candidate {
	sp.t.Helper()
	want, wantProp := sp.ref.Gather()
	got, gotProp := sp.got.Gather()
	if len(want) != len(got) || wantProp != gotProp {
		sp.t.Fatalf("%s: gather returned %d candidates (propagation %v), the shard's own state %d (%v)", when, len(got), gotProp, len(want), wantProp)
	}
	for i := range want {
		if want[i].Pair != got[i].Pair || math.Float64bits(want[i].Prob) != math.Float64bits(got[i].Prob) || !slices.Equal(want[i].Inferred, got[i].Inferred) {
			sp.t.Fatalf("%s: candidate %d is %+v, the shard's own state has %+v", when, i, got[i], want[i])
		}
	}
	for _, mu := range []int{1, 5, len(want)} {
		wantPicks, gotPicks := sp.ref.Rank(mu), sp.got.Rank(mu)
		if !slices.EqualFunc(wantPicks, gotPicks, func(a, b selection.Pick) bool {
			return a.Index == b.Index && math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}) {
			sp.t.Fatalf("%s: rank(%d) = %v, the shard's own state has %v", when, mu, gotPicks, wantPicks)
		}
	}
	return want
}

func (sp statePair) balls(when string, qs []pair.Pair) {
	sp.t.Helper()
	for _, q := range qs {
		if want, got := sp.ref.Ball(q), sp.got.Ball(q); !slices.Equal(want, got) {
			sp.t.Fatalf("%s: ball(%v) = %v, the shard's own state has %v", when, q, got, want)
		}
	}
}

// movedEstimates returns estimates for the labels, each moved off the
// fitted value by a step that depends on the label and the round.
func movedEstimates(sh *Shard, round int) map[ergraph.RelPair]consistency.Estimate {
	est := map[ergraph.RelPair]consistency.Estimate{}
	for i, label := range sh.Labels() {
		e := sh.est[label]
		step := 0.05 * float64((i+round)%4+1)
		e.Eps1 = math.Min(0.95, math.Max(0.05, e.Eps1-step))
		e.Eps2 = math.Min(0.95, math.Max(0.05, e.Eps2+step/2))
		est[label] = e
	}
	return est
}

// TestShardCodecRoundTrip is the wire's byte-identity guarantee at its
// root: a state started from decode(encode(shard)) and one started from the
// shard itself return the same candidates, ranks and balls, bit for bit,
// through resolves, detaches, damps and rebuilds — for every shard of four
// datasets at four shard counts under the three strategies — and encoding
// the decoded shard gives back the bytes it was decoded from.
func TestShardCodecRoundTrip(t *testing.T) {
	sets := []*datasets.Dataset{datasets.Clustered(40, 30, 1)}
	for _, name := range []string{"d-y", "iimb", "books"} {
		ds, err := datasets.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ds)
	}
	for _, ds := range sets {
		for _, shards := range []int{1, 2, 4, 7} {
			for _, strategy := range []selection.Strategy{selection.Greedy{}, selection.MaxInf{}, selection.MaxPr{}} {
				t.Run(fmt.Sprintf("%s/%d/%s", ds.Name, shards, strategy.Name()), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Shards, cfg.Strategy = shards, strategy
					p := Prepare(ds.K1, ds.K2, cfg)
					for s := 0; s < p.NumShards(); s++ {
						roundTripShard(t, p.Shard(s))
					}
				})
			}
		}
	}
}

func roundTripShard(t *testing.T, sh *Shard) {
	t.Helper()
	enc := sh.Encode()
	dec, err := DecodeShard(enc)
	if err != nil {
		t.Fatal(err)
	}
	if again := dec.Encode(); !bytes.Equal(enc, again) {
		t.Fatalf("encode∘decode∘encode changed the bytes (%d → %d)", len(enc), len(again))
	}
	for i := range sh.graph.Vertices() { // the in-rows are derived on decode, not carried
		if !slices.Equal(dec.graph.InIndexesAt(i), sh.graph.InIndexesAt(i)) || !slices.Equal(dec.graph.InLabelsAt(i), sh.graph.InLabelsAt(i)) {
			t.Fatalf("the decoded graph's in-row %d differs from the shard's", i)
		}
	}
	sp := statePair{t: t, ref: NewShardState(sh), got: NewShardState(dec)}
	cands := sp.gather("at birth")
	if len(cands) == 0 {
		return
	}
	// The script's vertices: spread over the candidate list, so hubs and
	// leaves both take every role. They are copied out of the list, which
	// the next gather refills.
	watch := make([]pair.Pair, 6)
	for i := range watch {
		watch[i] = cands[i*(len(cands)-1)/5].Pair
	}
	sp.balls("at birth", watch)
	both := func(f func(*ShardState)) { f(sp.ref); f(sp.got) }

	both(func(st *ShardState) { st.Resolve(watch[0], false); st.Resolve(watch[1], true); st.Damp(watch[2]) })
	sp.gather("after a confirm, a detach and a damp")
	sp.balls("after a confirm, a detach and a damp", watch)
	both(func(st *ShardState) { st.Rebuild(movedEstimates(sh, 0)) })
	sp.gather("after a rebuild")
	sp.balls("after a rebuild", watch)
	both(func(st *ShardState) {
		st.Resolve(watch[3], true)
		st.Rebuild(movedEstimates(sh, 1))
		st.Resolve(watch[4], false)
	})
	sp.gather("after a second detach and rebuild")
	sp.balls("after a second detach and rebuild", watch)
	both(func(st *ShardState) { st.Invalidate() })
	sp.gather("after a full invalidation")
	if want, got := sp.ref.Release(), sp.got.Release(); want != got {
		t.Fatalf("the decoded shard's engine ran %d recomputes, the shard's own %d", got, want)
	}
}

// rawShard is the binary shard format written out by hand, field by
// field: an encoder independent of Shard.Encode, whose fields a test can
// set to what no shard would hold.
type rawShard struct {
	version  uint32
	tau      float64
	strategy string
	verts    [][2]uint64
	priors   []float64
	global   []uint64 // nil: identity
	labels   []rawLabel
	rows     [][][2]uint64 // per vertex: (target, label index)
	probs    []float64
}

type rawLabel struct {
	r1, r2     uint64
	inverse    byte
	eps1, eps2 float64
}

func (r rawShard) payload() []byte {
	var b []byte
	uv := func(v uint64) { b = binary.AppendUvarint(b, v) }
	f64 := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	f64(r.tau)
	uv(uint64(len(r.strategy)))
	b = append(b, r.strategy...)
	uv(uint64(len(r.verts)))
	for _, v := range r.verts {
		uv(v[0])
		uv(v[1])
	}
	for _, p := range r.priors {
		f64(p)
	}
	if r.global == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, g := range r.global {
			uv(g)
		}
	}
	uv(uint64(len(r.labels)))
	for _, l := range r.labels {
		uv(l.r1)
		uv(l.r2)
		b = append(b, l.inverse)
		f64(l.eps1)
		f64(l.eps2)
	}
	for _, row := range r.rows {
		uv(uint64(len(row)))
		for _, e := range row {
			uv(e[0])
			uv(e[1])
		}
	}
	uv(uint64(len(r.probs)))
	for _, p := range r.probs {
		f64(p)
	}
	return b
}

// seal frames a payload: magic, version, payload, CRC.
func seal(version uint32, payload []byte) []byte {
	b := append([]byte("REMPSH1\n"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[8:], version)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func (r rawShard) encode() []byte { return seal(r.version, r.payload()) }

// tinyShard is a valid shard of five vertices: 0 → 1 and 0 → 2 under label
// 0, 1 → 3 under label 1 (and 0 → 1 under label 1 as well: one slot, two
// edges), vertex 4 without an edge.
func tinyShard() rawShard {
	return rawShard{
		version:  1,
		tau:      0.9,
		strategy: "greedy",
		verts:    [][2]uint64{{1, 1}, {2, 2}, {2, 3}, {5, 4}, {7, 7}},
		priors:   []float64{0.9, 0.8, 0.3, 0.5, 0.2},
		global:   []uint64{10, 11, 12, 40, 41},
		labels:   []rawLabel{{r1: 0, r2: 0, eps1: 0.7, eps2: 0.6}, {r1: 0, r2: 1, inverse: 1, eps1: 0.5, eps2: 0.5}},
		rows:     [][][2]uint64{{{1, 0}, {1, 1}, {2, 0}}, {{3, 1}}, {}, {}, {}},
		probs:    []float64{0.95, 0.4, 0.85},
	}
}

// TestDecodeShardRejectsHostileInput: every way an encoded shard can be
// wrong is an error that says which — never a panic, never an engine over
// a graph the coordinator did not send.
func TestDecodeShardRejectsHostileInput(t *testing.T) {
	valid := tinyShard().encode()
	sh, err := DecodeShard(valid)
	if err != nil {
		t.Fatalf("the fixture itself: %v", err)
	}
	if again := sh.Encode(); !bytes.Equal(valid, again) {
		t.Fatalf("Shard.Encode and the hand-written encoder disagree:\n%x\n%x", again, valid)
	}
	st := NewShardState(sh)
	if cands, _ := st.Gather(); len(cands) != 4 || cands[0].Inferred[0] != 10 {
		t.Fatalf("the fixture gathers %+v, want its four vertices with an edge under their global indexes", cands)
	}

	mutate := func(f func(*rawShard)) []byte {
		r := tinyShard()
		f(&r)
		return r.encode()
	}
	payload := tinyShard().payload()
	flipped := slices.Clone(valid)
	flipped[20] ^= 0x40
	cases := []struct {
		name string
		in   []byte
		want string // a fragment of the error
	}{
		{"empty", nil, "not an encoded shard"},
		{"wrong magic", append([]byte("REMPKB1\n"), valid[8:]...), "not an encoded shard"},
		{"version mismatch", mutate(func(r *rawShard) { r.version = 2 }), "format version 2"},
		{"bad CRC", flipped, "checksum"},
		{"truncated", valid[:len(valid)-9], "checksum"},
		{"truncated before sealing", seal(1, payload[:len(payload)-9]), "slots 3 out of range (at most 2)"},
		{"truncated inside τ", seal(1, payload[:5]), "truncated: 8 bytes wanted, 5 left"},
		{"trailing bytes", seal(1, append(slices.Clone(payload), 0)), "after the last field"},
		{"vertex count beyond the input", seal(1, slices.Concat(payload[:15], []byte{0xff, 0x7f}, payload[16:])), "vertices 16383 out of range"},
		{"padded varint", seal(1, bytes.Replace(payload, []byte("\x06greedy"), []byte("\x86\x00greedy"), 1)), "overlong varint"},
		{"unknown strategy", mutate(func(r *rawShard) { r.strategy = "random" }), `unknown strategy "random"`},
		{"tau out of range", mutate(func(r *rawShard) { r.tau = 0 }), "τ"},
		{"tau NaN", mutate(func(r *rawShard) { r.tau = math.NaN() }), "τ"},
		{"NaN prior", mutate(func(r *rawShard) { r.priors[1] = math.NaN() }), "prior NaN outside"},
		{"negative prior", mutate(func(r *rawShard) { r.priors[2] = -0.1 }), "prior -0.1 outside"},
		{"negative probability", mutate(func(r *rawShard) { r.probs[0] = -1 }), "edge probability -1 outside"},
		{"probability above one", mutate(func(r *rawShard) { r.probs[2] = 1.5 }), "edge probability 1.5 outside"},
		{"estimate out of range", mutate(func(r *rawShard) { r.labels[0].eps2 = 7 }), "consistency estimate 7 outside"},
		{"bad flag", mutate(func(r *rawShard) { r.labels[1].inverse = 2 }), "inverse flag 2 out of range"},
		{"no global indexes", mutate(func(r *rawShard) { r.global = nil }), "global-index flag 0"},
		{"entity beyond int32", mutate(func(r *rawShard) { r.verts[0][0] = 1 << 31 }), "entity 2147483648 out of range"},
		{"duplicate vertex", mutate(func(r *rawShard) { r.verts[2] = r.verts[1] }), "distinct"},
		{"labels unsorted", mutate(func(r *rawShard) { r.labels[0], r.labels[1] = r.labels[1], r.labels[0] }), "label order"},
		{"edge target ≥ vertex count", mutate(func(r *rawShard) { r.rows[1][0][0] = 5 }), "edge target 5 out of range"},
		{"label index out of range", mutate(func(r *rawShard) { r.rows[1][0][1] = 2 }), "edge label 2 out of range"},
		{"self-loop", mutate(func(r *rawShard) { r.rows[1][0][0] = 1 }), "edge to vertex 1"},
		{"row not sorted by target", mutate(func(r *rawShard) { r.rows[0][0], r.rows[0][2] = r.rows[0][2], r.rows[0][0] }), "not sorted"},
		{"row not sorted by label", mutate(func(r *rawShard) { r.rows[0][0], r.rows[0][1] = r.rows[0][1], r.rows[0][0] }), "not sorted"},
		{"too few probabilities", mutate(func(r *rawShard) { r.probs = r.probs[:2] }), "2 edge probabilities for a graph of 3 slots"},
		{"too many probabilities", mutate(func(r *rawShard) { r.probs = append(r.probs, 0.5) }), "4 edge probabilities for a graph of 3 slots"},
		{"too few rows", mutate(func(r *rawShard) { r.rows = r.rows[:4] }), "decoding shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh, err := DecodeShard(tc.in)
			if err == nil {
				t.Fatalf("accepted: %+v", sh)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected with %q, want a mention of %q", err, tc.want)
			}
		})
	}
}

// TestShardGolden pins the format against a file written by an earlier
// build: it still decodes, to what it held, and encodes back to the same
// bytes. (It is not compared with a freshly prepared shard: the format is
// what is pinned, not the pipeline that fills it.) -update rewrites it.
func TestShardGolden(t *testing.T) {
	path := filepath.Join("testdata", "shard-v1.bin")
	if *updateGolden {
		k1, k2, _ := movieWorld(3, 5)
		cfg := DefaultConfig()
		cfg.Shards, cfg.Strategy = 2, selection.MaxInf{}
		if err := os.WriteFile(path, Prepare(k1, k2, cfg).Shard(1).Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := DecodeShard(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh.Encode(), golden) {
		t.Fatal("the golden shard does not encode back to its own bytes")
	}
	if sh.tau != 0.9 || sh.strategy.Name() != "maxinf" || sh.graph.NumVertices() == 0 || sh.graph.NumEdges() == 0 ||
		len(sh.globalIdx) != sh.graph.NumVertices() || len(sh.est) != len(sh.Labels()) {
		t.Fatalf("the golden shard decodes to τ %v, %s, %d vertices, %d edges, %d global indexes, %d estimates for %d labels",
			sh.tau, sh.strategy.Name(), sh.graph.NumVertices(), sh.graph.NumEdges(), len(sh.globalIdx), len(sh.est), len(sh.Labels()))
	}
	if cands, anyProp := NewShardState(sh).Gather(); len(cands) != sh.graph.NumVertices() || !anyProp {
		t.Fatalf("the golden shard gathers %d candidates of %d vertices (propagation %v)", len(cands), sh.graph.NumVertices(), anyProp)
	}
}

// FuzzDecodeShard holds the decoder to its contract on arbitrary bytes:
// no panic, no allocation out of proportion to the input, and one encoding
// per shard — whatever it accepts encodes back to the same bytes. Seeds
// are real shards; every input is also tried with its checksum repaired,
// so mutation reaches the validation behind the CRC.
func FuzzDecodeShard(f *testing.F) {
	f.Add(tinyShard().encode())
	ds, err := datasets.ByName("books", 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, shards := range []int{1, 7} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		p := Prepare(ds.K1, ds.K2, cfg)
		for s := 0; s < p.NumShards(); s++ {
			f.Add(p.Shard(s).Encode())
		}
	}
	f.Add([]byte("REMPSH1\n\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tryDecode(t, data)
		if len(data) >= shardHeader+4 {
			tryDecode(t, seal(binary.LittleEndian.Uint32(data[8:]), data[shardHeader:len(data)-4]))
		}
	})
}

func tryDecode(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh, err := DecodeShard(data)
	runtime.ReadMemStats(&after)
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(data)); grew > bound {
		t.Fatalf("decoding %d bytes allocated %d, over the bound of %d", len(data), grew, bound)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(sh.Encode(), data) {
		t.Fatalf("accepted %d bytes that encode back differently", len(data))
	}
}
