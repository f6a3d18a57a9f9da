package cluster

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/selection"
)

// RPC method names.
const (
	// MethodPrepare starts a shard's engine state on the worker, from the
	// encoded shard the request carries.
	MethodPrepare = "prepare"
	// MethodApply appends commands to a shard's log without reading back.
	MethodApply = "apply"
	// MethodGather syncs the shard engine and returns its candidates.
	MethodGather = "gather"
	// MethodRank returns the shard's µ-batch picks.
	MethodRank = "rank"
	// MethodBall returns a confirmed match's last-sync propagation ball.
	MethodBall = "ball"
	// MethodRelease frees a settled shard's engine, returning recomputes.
	MethodRelease = "release"
	// MethodEnd drops every shard of a runner.
	MethodEnd = "end"
	// MethodPing is the heartbeat no-op.
	MethodPing = "ping"
)

// Command opcodes. A shard's mutating operations are logged as Cmds in
// coordinator sequence order; replaying the log against a freshly
// prepared ShardState reproduces the engine bit-identically.
const (
	// OpResolve resolves a vertex (ShardState.Resolve), optionally
	// detaching it from the propagation fabric.
	OpResolve = "resolve"
	// OpDamp marks a vertex a hard question, which gathers skip from then
	// on (ShardState.Damp). The damped prior is not sent: nothing reads it.
	OpDamp = "damp"
	// OpSync recomputes dirty balls (ShardState.Sync). Logged at every
	// gather position so a replay reproduces the last-sync snapshot that
	// Ball serves.
	OpSync = "sync"
	// OpInvalidate marks every ball dirty (ShardState.Invalidate).
	OpInvalidate = "invalidate"
	// OpRebuild rebuilds edge probabilities from re-fitted consistency
	// estimates (ShardState.Rebuild).
	OpRebuild = "rebuild"
)

// EstDTO is the wire form of one label's consistency estimate.
type EstDTO struct {
	R1      kb.RelID `json:"r1"`
	R2      kb.RelID `json:"r2"`
	Inverse bool     `json:"inv,omitempty"`
	Eps1    float64  `json:"eps1"`
	Eps2    float64  `json:"eps2"`
}

// encodeEstimates flattens the labels' estimates for the wire. Only the
// shard's own labels travel: a rebuild consults nothing else, and missing
// labels would fall back to the uniform prior rather than silently
// diverge — restricting the map is an optimization, not a risk.
func encodeEstimates(labels []ergraph.RelPair, est map[ergraph.RelPair]consistency.Estimate) []EstDTO {
	out := make([]EstDTO, 0, len(labels))
	for _, l := range labels {
		e, ok := est[l]
		if !ok {
			continue
		}
		out = append(out, EstDTO{R1: l.R1, R2: l.R2, Inverse: l.Inverse, Eps1: e.Eps1, Eps2: e.Eps2})
	}
	return out
}

// decodeEstimates rebuilds the estimate map a Rebuild consumes.
func decodeEstimates(dtos []EstDTO) map[ergraph.RelPair]consistency.Estimate {
	est := make(map[ergraph.RelPair]consistency.Estimate, len(dtos))
	for _, d := range dtos {
		est[ergraph.RelPair{R1: d.R1, R2: d.R2, Inverse: d.Inverse}] = consistency.Estimate{Eps1: d.Eps1, Eps2: d.Eps2}
	}
	return est
}

// Cmd is one sequence-numbered entry of a shard's command log. Seq is
// assigned by the coordinator, contiguous from 1; a worker applies a
// command exactly once by skipping Seq at or below its applied watermark
// and rejecting gaps, so duplicated or replayed frames are harmless.
type Cmd struct {
	Seq    int       `json:"seq"`
	Op     string    `json:"op"`
	Pair   pair.Pair `json:"pair,omitempty"`
	Detach bool      `json:"detach,omitempty"`
	Est    []EstDTO  `json:"est,omitempty"`
}

// prepareReq hands a worker one shard to run: Data is the shard itself in
// core's binary shard format (core.Shard.Encode) — its subgraph, priors,
// edge probabilities and estimates — so the worker starts the engine on a
// copy of what the coordinator prepared and derives nothing from a dataset.
type prepareReq struct {
	Runner string `json:"runner"`
	Shard  int    `json:"shard"`
	Data   []byte `json:"data"`
}

// shardReq addresses one shard and piggybacks the commands logged since
// the last acknowledged flush. Workers apply the commands (deduplicating
// by watermark) before serving the read.
type shardReq struct {
	Runner string `json:"runner"`
	Shard  int    `json:"shard"`
	Cmds   []Cmd  `json:"cmds,omitempty"`
	// Mu is the batch size for MethodRank.
	Mu int `json:"mu,omitempty"`
	// Pair is the confirmed match for MethodBall.
	Pair pair.Pair `json:"pair,omitempty"`
}

// shardRes is the shared response shape of the shard RPCs. Applied
// acknowledges the worker's command watermark after this request.
type shardRes struct {
	Applied int                   `json:"applied"`
	Cands   []selection.Candidate `json:"cands,omitempty"`
	AnyProp bool                  `json:"any_prop,omitempty"`
	Picks   []selection.Pick      `json:"picks,omitempty"`
	Ball    []pair.Pair           `json:"ball,omitempty"`
	// Recomputes is MethodRelease's Dijkstra-run count.
	Recomputes int64 `json:"recomputes,omitempty"`
}

// endReq drops every shard state of a finished runner.
type endReq struct {
	Runner string `json:"runner"`
}
