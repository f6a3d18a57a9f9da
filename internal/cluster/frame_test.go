package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// frameBytes encodes one envelope as its wire frame.
func frameBytes(t testing.TB, env Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameRoundTrip pins the codec: a written frame reads back
// field-identical, and consecutive frames on one stream stay framed.
func TestFrameRoundTrip(t *testing.T) {
	envs := []Envelope{
		{V: ProtocolVersion, ID: 1, Kind: FrameRequest, Method: MethodPing, Body: json.RawMessage(`{}`)},
		{V: ProtocolVersion, ID: 2, Kind: FrameResponse, Body: json.RawMessage(`{"applied":3}`)},
		{V: ProtocolVersion, ID: 3, Kind: FrameResponse, Err: "boom", ErrKind: ErrKindState},
	}
	var buf bytes.Buffer
	for _, env := range envs {
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range envs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.V != want.V || got.ID != want.ID || got.Kind != want.Kind ||
			got.Method != want.Method || got.Err != want.Err || got.ErrKind != want.ErrKind ||
			string(got.Body) != string(want.Body) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestReadFrameRejectsMalformed pins the decoder's failure modes: every
// malformed input errors — never panics, never allocates unboundedly.
func TestReadFrameRejectsMalformed(t *testing.T) {
	valid := frameBytes(t, Envelope{V: ProtocolVersion, ID: 9, Kind: FrameRequest, Method: MethodPing})
	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, MaxFrameBytes+1)
	badVersion := frameBytes(t, Envelope{V: ProtocolVersion + 9, ID: 1, Kind: FrameRequest})
	badKind := frameBytes(t, Envelope{V: ProtocolVersion, ID: 1, Kind: "oops"})
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty input", nil},
		{"truncated prefix", valid[:2]},
		{"zero length", []byte{0, 0, 0, 0}},
		{"oversized announcement", oversized},
		{"truncated body", valid[:len(valid)-3]},
		{"invalid json", append([]byte{0, 0, 0, 3}, '{', 'x', '}')},
		{"version mismatch", badVersion},
		{"unknown kind", badKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrame(bytes.NewReader(tc.in)); err == nil {
				t.Fatal("malformed frame accepted")
			}
		})
	}
}

// TestWriteFrameRejectsOversized pins the writer-side bound.
func TestWriteFrameRejectsOversized(t *testing.T) {
	big := Envelope{V: ProtocolVersion, ID: 1, Kind: FrameRequest, Body: json.RawMessage(`"` + strings.Repeat("a", MaxFrameBytes) + `"`)}
	if err := WriteFrame(&bytes.Buffer{}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame holds the decoder to its no-panic contract on arbitrary
// bytes. The corpus seeds are real captured frames — requests and
// responses the protocol actually exchanges — so mutation explores the
// neighborhood of valid traffic, not just noise.
func FuzzReadFrame(f *testing.F) {
	realFrames := []Envelope{
		{V: ProtocolVersion, ID: 1, Kind: FrameRequest, Method: MethodPing, Body: json.RawMessage(`{}`)},
		{V: ProtocolVersion, ID: 2, Kind: FrameRequest, Method: MethodPrepare,
			Body: json.RawMessage(`{"runner":"ab12-1","shard":0,"data":"UkVNUFNIMQoBAAAA"}`)},
		{V: ProtocolVersion, ID: 3, Kind: FrameRequest, Method: MethodGather,
			Body: json.RawMessage(`{"runner":"ab12-1","shard":2,"cmds":[{"seq":1,"op":"resolve","pair":{"U1":4,"U2":9},"detach":true},{"seq":2,"op":"sync"}]}`)},
		{V: ProtocolVersion, ID: 4, Kind: FrameResponse,
			Body: json.RawMessage(`{"applied":2,"cands":[{"Pair":{"U1":4,"U2":9},"Prob":0.75,"Inferred":[0,3]}],"any_prop":true}`)},
		{V: ProtocolVersion, ID: 5, Kind: FrameResponse, Err: "no state for runner ab12-1 shard 3", ErrKind: ErrKindState},
	}
	for _, env := range realFrames {
		f.Add(frameBytes(f, env))
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame the decoder accepts must satisfy the envelope invariants
		// and survive re-encoding.
		if env.V != ProtocolVersion {
			t.Fatalf("accepted version %d", env.V)
		}
		if env.Kind != FrameRequest && env.Kind != FrameResponse {
			t.Fatalf("accepted kind %q", env.Kind)
		}
		if err := WriteFrame(&bytes.Buffer{}, env); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
	})
}
