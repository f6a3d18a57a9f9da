package cluster

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Workers are the worker addresses (host:port). At least one is
	// required; shards are spread across the live ones.
	Workers []string
	// HeartbeatInterval is the ping cadence per worker. Default 1s.
	HeartbeatInterval time.Duration
	// LivenessTimeout marks a worker down after this long without a
	// successful pong. Default 5s.
	LivenessTimeout time.Duration
	// RPCTimeout bounds one RPC attempt (dial + write + read). Default 10s.
	RPCTimeout time.Duration
	// OpTimeout bounds one logical shard operation across all its retries
	// and failovers; exhausting it fails the session's loop. Default 2m.
	OpTimeout time.Duration
	// BackoffBase and BackoffMax bound the retry backoff schedule.
	// Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Faults injects failures into outgoing request frames for chaos
	// drills. Heartbeat pings bypass injection.
	Faults *Faults
	// Metrics receives liveness, retry and reassignment counts.
	Metrics Metrics
	// Logf, when non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.LivenessTimeout <= 0 {
		c.LivenessTimeout = 5 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Minute
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
}

// Coordinator owns a pool of workers and builds remote ShardRunners over
// them. It tracks worker liveness with heartbeats, retries RPCs with
// bounded jittered backoff, and re-prepares lost shards on survivors —
// the failover machinery every runner it vends shares.
type Coordinator struct {
	cfg     CoordinatorConfig
	workers []*workerClient

	nextID    atomic.Uint64
	runnerSeq atomic.Uint64
	seedSeq   atomic.Int64
	baseSeed  int64
	nonce     string

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCoordinator connects a coordinator to its worker pool and starts the
// heartbeat loops. Workers need not be reachable yet: a worker that never
// answers is marked down after LivenessTimeout and picked back up by the
// heartbeat when it appears.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses configured")
	}
	cfg.fill()
	var raw [16]byte
	if _, err := cryptorand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("cluster: seeding coordinator: %w", err)
	}
	co := &Coordinator{
		cfg:      cfg,
		nonce:    hex.EncodeToString(raw[:8]),
		baseSeed: int64(binary.BigEndian.Uint64(raw[8:])),
		closed:   make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		co.workers = append(co.workers, &workerClient{co: co, addr: addr})
	}
	co.recountLive()
	for _, wc := range co.workers {
		co.wg.Add(1)
		go co.heartbeat(wc)
	}
	return co, nil
}

// Close stops the heartbeats and closes every pooled connection. Runners
// vended by the coordinator must be closed first.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() { close(co.closed) })
	co.wg.Wait()
	for _, wc := range co.workers {
		wc.closePool()
	}
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// WorkerStatus is one worker's liveness snapshot for health reporting.
type WorkerStatus struct {
	Addr string `json:"addr"`
	Live bool   `json:"live"`
}

// Status snapshots the pool's liveness for /healthz.
func (co *Coordinator) Status() []WorkerStatus {
	out := make([]WorkerStatus, len(co.workers))
	for i, wc := range co.workers {
		out[i] = WorkerStatus{Addr: wc.addr, Live: !wc.isDown()}
	}
	return out
}

// LiveWorkers returns the number of workers currently considered live.
func (co *Coordinator) LiveWorkers() int {
	n := 0
	for _, wc := range co.workers {
		if !wc.isDown() {
			n++
		}
	}
	return n
}

// recountLive refreshes the liveness gauge.
func (co *Coordinator) recountLive() {
	co.cfg.Metrics.WorkersLive.Set(int64(co.LiveWorkers()))
}

// heartbeat pings one worker until the coordinator closes, marking it
// down after LivenessTimeout without a pong and back up on the first
// pong. Pings bypass fault injection: chaos must exercise retries and
// failover, not fake a dead worker.
func (co *Coordinator) heartbeat(wc *workerClient) {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.HeartbeatInterval)
	defer t.Stop()
	lastPong := time.Now()
	for {
		select {
		case <-co.closed:
			return
		case <-t.C:
		}
		// A ping may take the rest of the liveness window: one interval
		// alone marks a healthy worker down whenever this process is
		// starved of CPU for longer than that.
		timeout := max(co.cfg.HeartbeatInterval, co.cfg.LivenessTimeout-time.Since(lastPong))
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, _, err := wc.call(ctx, MethodPing, struct{}{}, false)
		cancel()
		if err == nil {
			lastPong = time.Now()
			if wc.isDown() {
				co.logf("cluster: worker %s is back", wc.addr)
				wc.markUp()
			}
			continue
		}
		if !wc.isDown() && time.Since(lastPong) > co.cfg.LivenessTimeout {
			co.logf("cluster: worker %s missed heartbeats for %v, marking down", wc.addr, co.cfg.LivenessTimeout)
			wc.markDown()
		}
	}
}

// callError classifies an RPC failure for the retry loop.
type callError struct {
	// transport marks dial/write/read failures: retryable, possibly on
	// another worker. Application errors have transport false.
	transport bool
	// kind is the application error kind (ErrKindState for repairable
	// lost-state errors).
	kind string
	err  error
}

func (e *callError) Error() string { return e.err.Error() }
func (e *callError) Unwrap() error { return e.err }

// workerClient is the coordinator's RPC client for one worker: a small
// idle-connection pool, a strike counter and the down flag.
type workerClient struct {
	co   *Coordinator
	addr string

	mu      sync.Mutex
	idle    []net.Conn
	down    bool
	strikes int
}

const (
	maxIdleConns  = 4
	strikeLimit   = 3
	maxReplayCmds = 512
)

func (wc *workerClient) isDown() bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.down
}

func (wc *workerClient) markDown() {
	wc.mu.Lock()
	was := wc.down
	wc.down = true
	idle := wc.idle
	wc.idle = nil
	wc.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	if !was {
		wc.co.cfg.Metrics.WorkerDowns.Inc()
		wc.co.recountLive()
	}
}

func (wc *workerClient) markUp() {
	wc.mu.Lock()
	was := wc.down
	wc.down = false
	wc.strikes = 0
	wc.mu.Unlock()
	if was {
		wc.co.recountLive()
	}
}

// strike records a transport failure; strikeLimit consecutive failures
// mark the worker down without waiting for the liveness timeout.
func (wc *workerClient) strike() {
	wc.mu.Lock()
	wc.strikes++
	hit := wc.strikes >= strikeLimit && !wc.down
	wc.mu.Unlock()
	if hit {
		wc.co.logf("cluster: worker %s struck out, marking down", wc.addr)
		wc.markDown()
	}
}

func (wc *workerClient) closePool() {
	wc.mu.Lock()
	idle := wc.idle
	wc.idle = nil
	wc.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// conn pops an idle connection or dials a fresh one.
func (wc *workerClient) conn(ctx context.Context) (net.Conn, error) {
	wc.mu.Lock()
	if n := len(wc.idle); n > 0 {
		c := wc.idle[n-1]
		wc.idle = wc.idle[:n-1]
		wc.mu.Unlock()
		return c, nil
	}
	wc.mu.Unlock()
	d := net.Dialer{Timeout: wc.co.cfg.RPCTimeout}
	return d.DialContext(ctx, "tcp", wc.addr)
}

// release returns a healthy connection to the pool.
func (wc *workerClient) release(c net.Conn) {
	wc.mu.Lock()
	if !wc.down && len(wc.idle) < maxIdleConns {
		wc.idle = append(wc.idle, c)
		wc.mu.Unlock()
		return
	}
	wc.mu.Unlock()
	c.Close()
}

// call performs one RPC attempt: dial or reuse a connection, write the
// request frame (through fault injection when injectFaults), and read
// responses until the matching ID arrives — duplicated frames produce
// extra responses, which are skipped by their stale IDs. Transport
// failures close the connection and, except for a heartbeat ping, count a
// strike; any response, even an application error, proves the worker
// healthy. A request that does not fit a frame (ErrFrameTooLarge) fails
// before a connection is touched: it says nothing about the worker.
func (wc *workerClient) call(ctx context.Context, method string, reqBody any, injectFaults bool) (json.RawMessage, string, error) {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return nil, "", &callError{err: fmt.Errorf("cluster: encoding %s request: %w", method, err)}
	}
	id := wc.co.nextID.Add(1)
	frame, err := encodeFrame(Envelope{V: ProtocolVersion, ID: id, Kind: FrameRequest, Method: method, Body: body})
	if err != nil {
		return nil, "", &callError{err: fmt.Errorf("cluster: %s request: %w", method, err)}
	}
	// A heartbeat ping never strikes: the heartbeat applies
	// LivenessTimeout itself, and a ping missing its deadline while this
	// process is busy says nothing about the worker.
	strike := func() {
		if method != MethodPing {
			wc.strike()
		}
	}
	conn, err := wc.conn(ctx)
	if err != nil {
		strike()
		return nil, "", &callError{transport: true, err: fmt.Errorf("cluster: dialing %s: %w", wc.addr, err)}
	}

	deadline := time.Now().Add(wc.co.cfg.RPCTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)

	fail := func(err error) (json.RawMessage, string, error) {
		conn.Close()
		strike()
		return nil, "", &callError{transport: true, err: err}
	}

	var faults *Faults
	if injectFaults {
		faults = wc.co.cfg.Faults
	}
	if d := faults.delay(); d > 0 {
		time.Sleep(d)
	}
	if faults.drop() {
		// The frame "never arrives": skip the write and let the read below
		// time out, exercising the timeout-and-retry path end to end.
	} else {
		if _, err := conn.Write(frame); err != nil {
			return fail(fmt.Errorf("cluster: writing %s to %s: %w", method, wc.addr, err))
		}
		if faults.duplicate() {
			if _, err := conn.Write(frame); err != nil {
				return fail(fmt.Errorf("cluster: writing duplicate %s to %s: %w", method, wc.addr, err))
			}
		}
	}
	for {
		res, err := ReadFrame(conn)
		if err != nil {
			return fail(fmt.Errorf("cluster: reading %s response from %s: %w", method, wc.addr, err))
		}
		if res.Kind != FrameResponse {
			return fail(fmt.Errorf("cluster: %s sent a non-response frame", wc.addr))
		}
		if res.ID < id {
			continue // response to an earlier duplicated frame on this connection
		}
		if res.ID != id {
			return fail(fmt.Errorf("cluster: %s answered id %d, want %d", wc.addr, res.ID, id))
		}
		wc.markUp()
		wc.release(conn)
		if res.Err != "" {
			return nil, res.ErrKind, &callError{kind: res.ErrKind, err: fmt.Errorf("cluster: %s: %s", wc.addr, res.Err)}
		}
		return res.Body, "", nil
	}
}
