// Package cluster moves the per-shard propagation engines of a session
// out of the coordinator process: a Coordinator implements core's
// ShardRunner by assigning shards to worker processes over a stdlib-only,
// length-prefixed JSON-RPC protocol, and a Worker hosts the assigned
// shards' engine states (core.ShardState — the same code the in-process
// runner executes, so local and remote runs are byte-identical by
// construction). A shard travels as itself: the prepare frame carries it
// in core's binary shard format, the worker decodes it and starts the
// engine, and no worker ever sees a session spec, a dataset or a KB.
//
// Robustness is the package's reason to exist. Every shard's mutating
// operations are sequence-numbered into a per-shard command log; workers
// deduplicate on the applied watermark, so any frame may be duplicated or
// replayed. RPCs carry per-request IDs, deadlines and bounded
// exponential backoff with jitter; worker liveness is tracked by
// heartbeats. When a worker dies mid-run the coordinator re-prepares the
// lost shards on surviving workers and replays their command logs —
// themselves derived from the session's WAL-durable answers — so a
// SIGKILLed worker costs latency, never correctness.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Protocol constants. Frames are a 4-byte big-endian length prefix
// followed by one JSON-encoded Envelope.
const (
	// ProtocolVersion is the wire version stamped into every envelope;
	// a mismatch is a decode error, so mixed deployments fail loudly.
	ProtocolVersion = 3
	// MaxFrameBytes bounds a frame body. Larger announcements are decode
	// errors, so a corrupt length prefix cannot trigger an unbounded
	// allocation.
	MaxFrameBytes = 32 << 20
)

// Envelope kinds.
const (
	// FrameRequest marks a request envelope.
	FrameRequest = "req"
	// FrameResponse marks a response envelope.
	FrameResponse = "res"
)

// Envelope is the versioned frame body shared by requests and responses.
// Requests carry Method and Body; responses echo the request ID and carry
// either Body or Err (with ErrKind classifying recoverable state loss).
type Envelope struct {
	V      int             `json:"v"`
	ID     uint64          `json:"id"`
	Kind   string          `json:"kind"`
	Method string          `json:"method,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	Err    string          `json:"err,omitempty"`
	// ErrKind classifies errors the caller can repair: ErrKindState means
	// the worker does not hold the addressed state (it restarted or never
	// saw the shard) and a prepare + log replay will fix it.
	ErrKind string `json:"err_kind,omitempty"`
}

// ErrKindState marks a lost-state error: re-prepare and replay to repair.
const ErrKindState = "state"

// ErrFrameTooLarge reports a message whose frame would exceed
// MaxFrameBytes. No peer would read it, so it is never sent and never
// retried: the operation that needed it fails with this error.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds MaxFrameBytes")

// WriteFrame encodes env as one length-prefixed frame. The header and
// body are written in a single Write so a frame is never interleaved by
// an unsynchronized writer.
func WriteFrame(w io.Writer, env Envelope) error {
	buf, err := encodeFrame(env)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encodeFrame returns env's frame, length prefix included.
func encodeFrame(env Envelope) ([]byte, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding frame: %w", err)
	}
	if len(body) > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, len(body), MaxFrameBytes)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

// ReadFrame decodes one frame. Malformed input — truncated prefix or
// body, oversized or empty announcements, invalid JSON, a version or kind
// mismatch — returns an error and never panics; the fuzz harness holds it
// to that.
func ReadFrame(r io.Reader) (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return Envelope{}, fmt.Errorf("cluster: empty frame")
	}
	if n > MaxFrameBytes {
		return Envelope{}, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Envelope{}, fmt.Errorf("cluster: truncated frame: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Envelope{}, fmt.Errorf("cluster: decoding frame: %w", err)
	}
	if env.V != ProtocolVersion {
		return Envelope{}, fmt.Errorf("cluster: protocol version %d, want %d", env.V, ProtocolVersion)
	}
	if env.Kind != FrameRequest && env.Kind != FrameResponse {
		return Envelope{}, fmt.Errorf("cluster: unknown frame kind %q", env.Kind)
	}
	return env, nil
}
