package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/pair"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Logf, when non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
	// Faults injects failures for chaos drills; CrashAfterRPCs is the
	// worker-side fault (the worker tears itself down after handling N
	// non-ping requests, simulating a SIGKILL).
	Faults *Faults
}

// shardKey addresses one shard of one runner (a runner is one Loop's
// lifetime, named by the coordinator).
type shardKey struct {
	runner string
	shard  int
}

// workerShard is one assigned shard's engine state plus the replication
// watermark. The mutex serializes command application with reads; the
// coordinator already serializes per-shard traffic, but duplicated
// frames and re-prepares may race the tail of a previous request.
type workerShard struct {
	// preparedBy is the ID of the prepare frame that started the state. A
	// duplicate of that frame — same ID, unlike a retried or failover
	// prepare — must not restart a state that commands have since advanced.
	preparedBy uint64

	mu         sync.Mutex
	st         *core.ShardState
	applied    int
	released   bool
	recomputes int64
}

// Worker hosts assigned shards' engine states and serves the cluster RPC
// protocol on a listener. One goroutine per connection handles requests
// sequentially; distinct shards are safe to drive from distinct
// connections concurrently.
type Worker struct {
	cfg WorkerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	shardMu sync.Mutex
	shards  map[shardKey]*workerShard
}

// NewWorker builds a Worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{
		cfg:    cfg,
		conns:  map[net.Conn]struct{}{},
		shards: map[shardKey]*workerShard{},
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the worker is closed. It returns
// nil after Close (or a crash fault); any other accept error is returned.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return nil
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

// Close tears the worker down: the listener and every connection are
// closed and all shard state is dropped, exactly what a SIGKILL does
// minus process exit. Safe to call more than once.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	w.shardMu.Lock()
	w.shards = map[shardKey]*workerShard{}
	w.shardMu.Unlock()
	return nil
}

func (w *Worker) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	for {
		env, err := ReadFrame(conn)
		if err != nil {
			return // EOF, torn connection, or garbage: the client retries
		}
		if env.Kind != FrameRequest {
			continue
		}
		if env.Method != MethodPing && w.cfg.Faults.crashDue() {
			w.logf("cluster worker: crash fault tripped, tearing down")
			w.Close()
			return
		}
		body, errKind, err := w.handle(env.ID, env.Method, env.Body)
		res := Envelope{V: ProtocolVersion, ID: env.ID, Kind: FrameResponse}
		if err != nil {
			res.Err, res.ErrKind = err.Error(), errKind
		} else {
			res.Body = body
		}
		err = WriteFrame(conn, res)
		if errors.Is(err, ErrFrameTooLarge) {
			// The connection is fine and so is the worker: answer with the
			// error instead of dropping a healthy link.
			err = WriteFrame(conn, Envelope{V: ProtocolVersion, ID: env.ID, Kind: FrameResponse,
				Err: fmt.Sprintf("cluster worker: %s response: %v", env.Method, err)})
		}
		if err != nil {
			return
		}
	}
}

// handle dispatches one request. A panic in a handler (a malformed
// request reaching engine code) is converted to an error response so one
// bad frame cannot take the worker down.
func (w *Worker) handle(id uint64, method string, body json.RawMessage) (res json.RawMessage, errKind string, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, errKind, err = nil, "", fmt.Errorf("cluster worker: %s panicked: %v", method, r)
		}
	}()
	switch method {
	case MethodPing:
		return json.RawMessage(`{}`), "", nil
	case MethodPrepare:
		var req prepareReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad prepare body: %w", err)
		}
		return w.handlePrepare(id, req)
	case MethodApply, MethodGather, MethodBall, MethodRelease:
		var req shardReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad %s body: %w", method, err)
		}
		return w.handleShard(method, req)
	case MethodEnd:
		var req endReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad end body: %w", err)
		}
		w.shardMu.Lock()
		for k := range w.shards {
			if k.runner == req.Runner {
				delete(w.shards, k)
			}
		}
		w.shardMu.Unlock()
		return json.RawMessage(`{}`), "", nil
	default:
		return nil, "", fmt.Errorf("cluster worker: unknown method %q", method)
	}
}

func (w *Worker) handlePrepare(id uint64, req prepareReq) (json.RawMessage, string, error) {
	w.shardMu.Lock()
	old := w.shards[shardKey{req.Runner, req.Shard}]
	w.shardMu.Unlock()
	if old != nil && old.preparedBy == id {
		return mustMarshal(shardRes{}), "", nil // the same frame again
	}
	sh, err := core.DecodeShard(req.Data)
	if err != nil {
		return nil, "", fmt.Errorf("cluster worker: runner %s shard %d: %w", req.Runner, req.Shard, err)
	}
	ws := &workerShard{preparedBy: id, st: core.NewShardState(sh)}
	w.shardMu.Lock()
	// A re-prepare (the coordinator replaying a lost shard, or retrying a
	// timed-out prepare) replaces any previous state wholesale: the
	// replayed log rebuilds it from sequence 1.
	w.shards[shardKey{req.Runner, req.Shard}] = ws
	w.shardMu.Unlock()
	w.logf("cluster worker: prepared runner %s shard %d", req.Runner, req.Shard)
	return mustMarshal(shardRes{Applied: 0}), "", nil
}

// NumShards returns how many shard states the worker holds: the shards
// assigned to it by runners that have not ended.
func (w *Worker) NumShards() int {
	w.shardMu.Lock()
	defer w.shardMu.Unlock()
	return len(w.shards)
}

func (w *Worker) handleShard(method string, req shardReq) (json.RawMessage, string, error) {
	w.shardMu.Lock()
	ws, ok := w.shards[shardKey{req.Runner, req.Shard}]
	w.shardMu.Unlock()
	if !ok {
		return nil, ErrKindState, fmt.Errorf("cluster worker: no state for runner %s shard %d", req.Runner, req.Shard)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.apply(req.Cmds); err != nil {
		return nil, "", err
	}
	res := shardRes{Applied: ws.applied}
	switch method {
	case MethodApply:
	case MethodGather:
		// The batch's reads ride the gather: the picks, and the ball a
		// confirmation of each would propagate along. Balls change only at
		// a sync, so these are what a later Ball would read.
		res.Cands, res.AnyProp = ws.st.Gather()
		res.Picks = ws.st.Rank(min(req.Mu, len(res.Cands)))
		res.Balls = make([][]pair.Pair, len(res.Picks))
		for i, pk := range res.Picks {
			res.Balls[i] = ws.st.Ball(res.Cands[pk.Index].Pair)
		}
	case MethodBall:
		res.Ball = ws.st.Ball(req.Pair)
	case MethodRelease:
		if !ws.released {
			ws.recomputes = ws.st.Release()
			ws.released = true
		}
		res.Recomputes = ws.recomputes
	}
	return mustMarshal(res), "", nil
}

// apply executes the piggybacked command tail, deduplicating by the
// watermark: a command at or below applied was already executed (the
// frame was duplicated or replayed) and is skipped; a gap means the
// coordinator and worker disagree about history and is an error.
func (ws *workerShard) apply(cmds []Cmd) error {
	for _, c := range cmds {
		if c.Seq <= ws.applied {
			continue
		}
		if c.Seq != ws.applied+1 {
			return fmt.Errorf("cluster worker: command gap: have %d, got seq %d", ws.applied, c.Seq)
		}
		switch c.Op {
		case OpResolve:
			ws.st.Resolve(c.Pair, c.Detach)
		case OpDamp:
			ws.st.Damp(c.Pair)
		case OpSync:
			ws.st.Sync()
		case OpRebuild:
			ws.st.Rebuild(decodeEstimates(c.Est))
		default:
			return fmt.Errorf("cluster worker: unknown op %q at seq %d", c.Op, c.Seq)
		}
		ws.applied = c.Seq
	}
	return nil
}

// mustMarshal encodes a response DTO; the DTOs marshal by construction.
func mustMarshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
