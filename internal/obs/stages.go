package obs

import "sync/atomic"

// Stage names one phase of the human–machine loop for per-stage timing.
type Stage int

// Loop stages, in pipeline order.
const (
	// StagePrepare is ER graph construction + propagation modeling
	// (core.Prepare), paid once per session.
	StagePrepare Stage = iota
	// StageBlock is Prepare's candidate-generation sub-stage: token
	// interning, inverted-index build and the Jaccard scan (§IV-B).
	StageBlock
	// StageSimilarity is Prepare's similarity sub-stage: attribute
	// matching over the initial matches, similarity-vector assembly and
	// partial-order pruning (§IV-C/D).
	StageSimilarity
	// StageGraph is Prepare's ER-graph sub-stage: the graph over the
	// retained pairs (§V) and its per-entity vertex indexes.
	StageGraph
	// StageFit is Prepare's consistency sub-stage: the seed statistics and
	// the (ε1, ε2) fit of every edge label over the initial matches (§V-A).
	StageFit
	// StageShards is Prepare's last sub-stage: the partition into engine
	// shards and each shard's probabilistic graph. The block, similarity,
	// graph, fit and shards spans run one after another inside the
	// enclosing prepare span.
	StageShards
	// StageInfer is the loop top's propagation work: engine Sync
	// (incremental recompute or rebuild), candidate gathering, and the
	// ranking each gathered shard makes right after its gather, in
	// process as on a cluster worker.
	StageInfer
	// StageSelect is multiple-questions selection: the isolated vertices'
	// one ranking, the ranked merge across shards and batch padding.
	StageSelect
	// StageApply is answer application: truth inference, match
	// confirmation, competitor detachment, prior damping.
	StageApply
	// StageReestimate is the batch tail's model refresh: consistency and
	// edge-probability re-estimation.
	StageReestimate
	// StageClassify is the session-end isolated-pair classifier (§VII-B):
	// one span per finished loop. On a plan's first classification it
	// covers the plan's inputs (signatures from attribute-match masks,
	// neighborhoods, row classes); on every outcome the plan's memo has
	// not seen, the neighborhood forests, fitted concurrently on the
	// process's pool, and the predictions.
	StageClassify

	numStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageBlock:
		return "block"
	case StageSimilarity:
		return "similarity"
	case StageGraph:
		return "graph"
	case StageFit:
		return "fit"
	case StageShards:
		return "shards"
	case StageInfer:
		return "infer"
	case StageSelect:
		return "select"
	case StageApply:
		return "apply"
	case StageReestimate:
		return "reestimate"
	case StageClassify:
		return "classify"
	}
	return "unknown"
}

// Stages lists every loop stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// LoopTrace accumulates per-stage wall time through an injected Clock,
// so the deterministic loop code never reads the wall clock itself. It
// keeps atomic nanosecond totals and counts per stage (the shards
// experiment reads them via Totals) and optionally mirrors every span
// into an attached Histogram per stage (the server's
// remp_loop_stage_seconds series). All methods are nil-receiver-safe;
// a nil trace (or nil clock) makes Start/End free no-ops.
type LoopTrace struct {
	clock  Clock
	totals [numStages]atomic.Int64
	counts [numStages]atomic.Int64
	hists  [numStages]*Histogram
}

// NewLoopTrace returns a trace reading spans from clock.
func NewLoopTrace(clock Clock) *LoopTrace {
	return &LoopTrace{clock: clock}
}

// Attach mirrors stage spans into h (call before tracing starts).
func (t *LoopTrace) Attach(s Stage, h *Histogram) {
	if t == nil || s < 0 || s >= numStages {
		return
	}
	t.hists[s] = h
}

// Start returns the clock's current reading (0 on a nil trace).
func (t *LoopTrace) Start() int64 {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// End records one span for the stage, begun at a Start reading.
func (t *LoopTrace) End(s Stage, start int64) {
	if t == nil || t.clock == nil || s < 0 || s >= numStages {
		return
	}
	d := t.clock() - start
	if d < 0 {
		d = 0
	}
	t.totals[s].Add(d)
	t.counts[s].Add(1)
	t.hists[s].ObserveNS(d)
}

// Totals returns accumulated nanoseconds keyed by stage label, omitting
// stages that never ran.
func (t *LoopTrace) Totals() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64, numStages)
	for s := Stage(0); s < numStages; s++ {
		if n := t.counts[s].Load(); n > 0 {
			out[s.String()] = t.totals[s].Load()
		}
	}
	return out
}
