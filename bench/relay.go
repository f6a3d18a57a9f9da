package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// relay is a frame-aware TCP relay the traced serve-cluster run puts
// between the server's coordinator and one worker: it forwards every
// length-prefixed frame unchanged while counting frames and bytes, and
// keeps the largest worker→server frame (a gather response) for the
// codec round-trip measurement. It adds a store-and-forward hop, which
// is why it exists in the traced run only.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	frames atomic.Int64

	mu      sync.Mutex
	biggest []byte
	conns   []net.Conn
	wg      sync.WaitGroup
}

// newRelay listens on a kernel-chosen loopback port and forwards to
// target.
func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(up, c, false)
		go r.pump(c, up, true)
	}
}

// pump forwards frames from src to dst until either side closes.
func (r *relay) pump(dst, src net.Conn, fromWorker bool) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > cluster.MaxFrameBytes {
			return // not the protocol this relay understands
		}
		buf := make([]byte, 4+int(n))
		copy(buf, hdr[:])
		if _, err := io.ReadFull(src, buf[4:]); err != nil {
			return
		}
		r.frames.Add(1)
		r.bytes.Add(int64(len(buf)))
		if fromWorker {
			r.mu.Lock()
			if len(buf)-4 > len(r.biggest) {
				r.biggest = buf[4:]
			}
			r.mu.Unlock()
		}
		if _, err := dst.Write(buf); err != nil {
			return
		}
	}
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// relayStat is what one relay counted.
type relayStat struct {
	bytes, frames int64
	biggest       []byte
}

// stat returns the relay's counters; call it after close.
func (r *relay) stat() relayStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	return relayStat{bytes: r.bytes.Load(), frames: r.frames.Load(), biggest: r.biggest}
}

// frameRoundtripUS times WriteFrame + ReadFrame of the captured frame:
// the wire codec's cost for the largest response of the run, in
// microseconds (median of 200). 0 when no frame was captured.
func frameRoundtripUS(body []byte) float64 {
	var env cluster.Envelope
	if len(body) == 0 || json.Unmarshal(body, &env) != nil {
		return 0
	}
	samples := make([]float64, 0, 200)
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := cluster.WriteFrame(&buf, env); err != nil {
			return 0
		}
		if _, err := cluster.ReadFrame(&buf); err != nil {
			return 0
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(samples)
}
