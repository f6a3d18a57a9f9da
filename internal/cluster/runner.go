package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/selection"
)

// Runner is a core.RunnerFactory that places a loop's shard engines on the
// coordinator's workers. Each worker is sent the shards it is assigned,
// encoded from p — at assignment, and again from p when a shard fails over —
// so a worker computes on a copy of exactly what p holds.
func (co *Coordinator) Runner(p *core.Prepared) (core.ShardRunner, error) {
	r := &remoteRunner{
		co: co,
		p:  p,
		id: fmt.Sprintf("%s-%d", co.nonce, co.runnerSeq.Add(1)),
	}
	n := p.NumShards()
	r.shards = make([]*remoteShard, n)
	for s := range r.shards {
		r.shards[s] = &remoteShard{worker: s % len(co.workers)}
	}
	// Assign every shard eagerly so prepare latency overlaps across
	// workers and a dead-on-arrival cluster fails the loop at birth
	// instead of at the first gather.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx, cancel := r.opContext()
			defer cancel()
			_, errs[s] = r.ensure(ctx, s)
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.Close() //nolint:errcheck // best-effort: drop the shards that did get assigned
		return nil, fmt.Errorf("cluster: assigning shards: %w", err)
	}
	co.logf("cluster: runner %s assigned %d shards across %d workers", r.id, n, co.LiveWorkers())
	return r, nil
}

// encodeShard is what a prepare frame carries; a variable so that a test
// can pad a shard past the frame bound.
var encodeShard = (*core.Shard).Encode

// remoteShard is the coordinator-side replica of one shard: the full
// sequence-numbered command log (the failover source of truth), the flush
// watermark acknowledged by the current worker, and the assignment.
type remoteShard struct {
	mu      sync.Mutex
	log     []Cmd
	flushed int
	worker  int
	// prepared marks the current assignment valid; a state-loss error
	// clears it. assigned stays true once the shard has ever had an owner,
	// so a later prepare is counted as a reassignment either way.
	prepared bool
	assigned bool
	released bool

	// The last gather's reads, computed by the worker in the same frame:
	// its picks for a batch of the session's µ and each pick's ball by
	// pair. Every Gather replaces them, so they always describe the last
	// logged sync — the state Rank and Ball read — and a failover, which
	// replays that sync bit for bit, leaves them exact. The loop
	// serializes a shard's calls, so no lock guards them.
	picks []selection.Pick
	balls map[pair.Pair][]pair.Pair
}

// remoteRunner is the cluster implementation of core.ShardRunner. Writes
// append to the per-shard command log and ship lazily, piggybacked on the
// next read RPC; reads retry with jittered backoff under the operation
// deadline, failing over to a surviving worker — re-prepare plus full log
// replay — when the owner is lost. A gather is the one read a batch
// normally makes of a shard: it brings the shard's ranked picks and their
// balls back with the candidates.
type remoteRunner struct {
	co *Coordinator
	p  *core.Prepared
	id string

	shards []*remoteShard
}

func (r *remoteRunner) opContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), r.co.cfg.OpTimeout)
}

func (r *remoteRunner) backoff() *backoff {
	return newBackoff(r.co.cfg.BackoffBase, r.co.cfg.BackoffMax, r.co.baseSeed+r.co.seedSeq.Add(1))
}

// append logs one command. Writes never fail: the log is durable in the
// coordinator (itself recoverable from the session WAL), and shipping is
// deferred to the next read RPC on the shard.
func (r *remoteRunner) append(s int, c Cmd) {
	sh := r.shards[s]
	sh.mu.Lock()
	c.Seq = len(sh.log) + 1
	sh.log = append(sh.log, c)
	sh.mu.Unlock()
}

func (r *remoteRunner) Resolve(s int, q pair.Pair, detach bool) error {
	r.append(s, Cmd{Op: OpResolve, Pair: q, Detach: detach})
	return nil
}

func (r *remoteRunner) Damp(s int, q pair.Pair, _ float64) error {
	r.append(s, Cmd{Op: OpDamp, Pair: q})
	return nil
}

func (r *remoteRunner) Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error {
	r.append(s, Cmd{Op: OpRebuild, Est: encodeEstimates(r.p.Shard(s).Labels(), est)})
	return nil
}

// Invalidate refuses: it serves core's in-process full-resync test hook,
// which no remote loop sets.
func (r *remoteRunner) Invalidate(s int) error {
	return fmt.Errorf("cluster: Invalidate(%d): the full-resync hook is in-process only", s)
}

func (r *remoteRunner) Gather(s int) ([]selection.Candidate, bool, error) {
	// The sync marker makes the gather's engine sync part of the log:
	// replaying a lost shard re-executes every sync at its original
	// position, so the last-sync snapshot Ball serves reproduces
	// bit-identically.
	r.append(s, Cmd{Op: OpSync})
	sh := r.shards[s]
	sh.picks, sh.balls = nil, nil
	mu := r.p.Cfg.Mu
	res, err := r.do(s, MethodGather, shardReq{Mu: mu})
	if err != nil {
		return nil, false, err
	}
	if err := checkGather(res, mu, r.p.Shard(s), r.p.Graph.NumVertices()); err != nil {
		return nil, false, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	sh.picks = res.Picks
	sh.balls = make(map[pair.Pair][]pair.Pair, len(res.Picks))
	for i, pk := range res.Picks {
		sh.balls[res.Cands[pk.Index].Pair] = res.Balls[i]
	}
	return res.Cands, res.AnyProp, nil
}

// ErrBadGather reports a gather or ball answer that does not hold
// together: more picks than the batch, a pick without its ball, a pick that
// names no candidate, a candidate or ball pair that is no vertex of the
// shard, or a candidate whose inferred set is empty or names a vertex the
// graph does not have. The worker is deterministic, so no retry could
// mend it.
var ErrBadGather = errors.New("malformed gather answer")

// checkGather validates a worker's gather answer for a batch of mu over
// shard sh of a graph of n vertices before the runner or the loop indexes
// anything by it. A strategy may rank fewer than min(mu, candidates) —
// Greedy stops at zero benefit — never more.
func checkGather(res shardRes, mu int, sh *core.Shard, n int) error {
	if len(res.Picks) > min(mu, len(res.Cands)) {
		return fmt.Errorf("%w: %d picks for a batch of %d over %d candidates", ErrBadGather, len(res.Picks), mu, len(res.Cands))
	}
	if len(res.Balls) != len(res.Picks) {
		return fmt.Errorf("%w: %d balls for %d picks", ErrBadGather, len(res.Balls), len(res.Picks))
	}
	for _, pk := range res.Picks {
		if pk.Index < 0 || pk.Index >= len(res.Cands) {
			return fmt.Errorf("%w: pick %d of %d candidates", ErrBadGather, pk.Index, len(res.Cands))
		}
	}
	for _, c := range res.Cands {
		if !sh.Has(c.Pair) {
			return fmt.Errorf("%w: candidate %v is not a vertex of the shard", ErrBadGather, c.Pair)
		}
		// Inferred[0] is the candidate's own graph index; selection reads it.
		if len(c.Inferred) == 0 {
			return fmt.Errorf("%w: candidate %v infers nothing", ErrBadGather, c.Pair)
		}
		for _, i := range c.Inferred {
			if i < 0 || i >= n {
				return fmt.Errorf("%w: candidate %v infers vertex %d of %d", ErrBadGather, c.Pair, i, n)
			}
		}
	}
	for _, ball := range res.Balls {
		if err := checkBall(ball, sh); err != nil {
			return err
		}
	}
	return nil
}

// checkBall validates a ball a worker sent for shard sh: the loop resolves
// every pair of it by its graph index.
func checkBall(ball []pair.Pair, sh *core.Shard) error {
	for _, q := range ball {
		if !sh.Has(q) {
			return fmt.Errorf("%w: ball pair %v is not a vertex of the shard", ErrBadGather, q)
		}
	}
	return nil
}

// Rank serves the picks the last gather carried: the loop asks for at most
// the session's µ, and by the Strategy contract a ranking for mu is the
// first mu picks of one for any larger batch.
func (r *remoteRunner) Rank(s, mu int) ([]selection.Pick, error) {
	picks := r.shards[s].picks
	k := min(mu, len(picks))
	return picks[:k:k], nil
}

// Ball serves a pick's ball from the last gather; engine balls change only
// at a sync, so it is the ball a Ball RPC would read. Any other q — a
// short batch's pad — is its own RPC.
func (r *remoteRunner) Ball(s int, q pair.Pair) ([]pair.Pair, error) {
	if ball, ok := r.shards[s].balls[q]; ok {
		return ball, nil
	}
	r.co.cfg.Metrics.ReadFallbacks.Inc()
	res, err := r.do(s, MethodBall, shardReq{Pair: q})
	if err != nil {
		return nil, err
	}
	if err := checkBall(res.Ball, r.p.Shard(s)); err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	return res.Ball, nil
}

// Release drops a settled shard's engine. It is a single best-effort
// attempt: recomputes are diagnostics, the loop never addresses a settled
// shard again, and burning the failover machinery on a freed engine would
// re-prepare state only to discard it.
func (r *remoteRunner) Release(s int) (int64, error) {
	sh := r.shards[s]
	sh.released = true
	ctx, cancel := context.WithTimeout(context.Background(), r.co.cfg.RPCTimeout)
	defer cancel()
	if !sh.prepared || len(sh.log) == 0 || r.co.workers[sh.worker].isDown() {
		return 0, nil // no owner, or nothing ever ran there: the end frame drops the state
	}
	sh.mu.Lock()
	req := shardReq{Runner: r.id, Shard: s, Cmds: sh.log[sh.flushed:]}
	sh.mu.Unlock()
	body, _, err := r.co.workers[sh.worker].call(ctx, MethodRelease, req, true)
	if err != nil {
		return 0, nil
	}
	var res shardRes
	if json.Unmarshal(body, &res) != nil {
		return 0, nil
	}
	sh.mu.Lock()
	sh.flushed = len(sh.log)
	sh.mu.Unlock()
	return res.Recomputes, nil
}

// Close releases the remaining shards, then tells every live worker to
// drop the runner's state, each step concurrently across shards and
// workers. Always succeeds: close-time recomputes are diagnostics only.
func (r *remoteRunner) Close() (int64, error) {
	var n atomic.Int64
	var wg sync.WaitGroup
	for s, sh := range r.shards {
		if sh.released {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, _ := r.Release(s)
			n.Add(rec)
		}()
	}
	wg.Wait()
	for _, wc := range r.co.workers {
		if wc.isDown() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.co.cfg.RPCTimeout)
			defer cancel()
			wc.call(ctx, MethodEnd, endReq{Runner: r.id}, true)
		}()
	}
	wg.Wait()
	return n.Load(), nil
}

// permanent reports whether err is one a retry would only repeat: an
// application error other than lost state — the worker is healthy and
// deterministic — or a frame too large for any worker to read.
func permanent(err error) bool {
	var ce *callError
	return errors.As(err, &ce) && !ce.transport && ce.kind != ErrKindState
}

// do performs one read RPC on a shard, shipping the pending command tail,
// retrying with backoff under the operation deadline and failing over
// when the owner is lost; a permanent error ends it at once.
func (r *remoteRunner) do(s int, method string, req shardReq) (shardRes, error) {
	sh := r.shards[s]
	ctx, cancel := r.opContext()
	defer cancel()
	bo := r.backoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.co.cfg.Metrics.RPCRetries.Inc()
			if err := bo.Sleep(ctx); err != nil {
				return shardRes{}, fmt.Errorf("cluster: shard %d %s exhausted its deadline: %w (last error: %v)", s, method, err, lastErr)
			}
		}
		wi, err := r.ensure(ctx, s)
		if err != nil {
			if permanent(err) {
				return shardRes{}, err
			}
			if ctx.Err() != nil {
				return shardRes{}, fmt.Errorf("cluster: shard %d %s exhausted its deadline: %w", s, method, err)
			}
			lastErr = err
			continue
		}
		sh.mu.Lock()
		flushedAtSend := sh.flushed
		req.Runner, req.Shard = r.id, s
		req.Cmds = sh.log[flushedAtSend:]
		sent := len(sh.log)
		sh.mu.Unlock()
		body, kind, err := r.co.workers[wi].call(ctx, method, req, true)
		if err != nil {
			if permanent(err) {
				return shardRes{}, err
			}
			lastErr = err
			if kind == ErrKindState {
				// The worker restarted and lost the shard: re-prepare + replay.
				sh.prepared = false
			}
			continue
		}
		var res shardRes
		if err := json.Unmarshal(body, &res); err != nil {
			lastErr = fmt.Errorf("cluster: decoding %s response: %w", method, err)
			continue
		}
		sh.mu.Lock()
		if sh.flushed < sent {
			sh.flushed = sent
		}
		sh.mu.Unlock()
		bo.Reset()
		return res, nil
	}
}

// ensure returns a live worker holding the shard's state, preparing and
// replaying the command log if the shard is unassigned or its owner died.
// Candidate workers are probed round-robin from the current assignment;
// with none live it errors and the caller backs off (the heartbeat may
// revive one).
func (r *remoteRunner) ensure(ctx context.Context, s int) (int, error) {
	sh := r.shards[s]
	if sh.prepared && !r.co.workers[sh.worker].isDown() {
		return sh.worker, nil
	}
	n := len(r.co.workers)
	var lastErr error
	for off := 0; off < n; off++ {
		wi := (sh.worker + off) % n
		wc := r.co.workers[wi]
		if wc.isDown() {
			continue
		}
		if err := r.prepareOn(ctx, wc, s); err != nil {
			if permanent(err) {
				return 0, err // no other worker would take it either
			}
			lastErr = err
			continue
		}
		if sh.assigned {
			// The shard had an owner before: this prepare is a failover.
			r.co.cfg.Metrics.Reassignments.Inc()
			r.co.logf("cluster: runner %s shard %d reassigned %s -> %s",
				r.id, s, r.co.workers[sh.worker].addr, wc.addr)
		}
		sh.worker = wi
		sh.prepared = true
		sh.assigned = true
		return wi, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no live workers (%d configured)", n)
	}
	return 0, lastErr
}

// prepareOn starts the shard's state on a worker — from the shard itself,
// encoded afresh from the runner's Prepared — and replays the full command
// log in bounded chunks. The worker rebuilds from sequence 1; every logged
// sync lands at its original position, so the rebuilt engine is
// bit-identical to the lost one.
func (r *remoteRunner) prepareOn(ctx context.Context, wc *workerClient, s int) error {
	sh := r.shards[s]
	preq := prepareReq{Runner: r.id, Shard: s, Data: encodeShard(r.p.Shard(s))}
	if _, _, err := wc.call(ctx, MethodPrepare, preq, true); err != nil {
		return fmt.Errorf("cluster: preparing shard %d: %w", s, err)
	}
	sh.mu.Lock()
	log := sh.log
	sh.mu.Unlock()
	for lo := 0; lo < len(log); lo += maxReplayCmds {
		hi := min(lo+maxReplayCmds, len(log))
		req := shardReq{Runner: r.id, Shard: s, Cmds: log[lo:hi]}
		if _, _, err := wc.call(ctx, MethodApply, req, true); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	sh.flushed = len(log)
	sh.mu.Unlock()
	return nil
}
