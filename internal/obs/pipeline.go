package obs

// EngineCounters are the propagation engine's incremental-maintenance
// counters. The struct is carried by value with nil-safe *Counter
// fields, so an unwired engine (tests, the synchronous Resolve path)
// pays a nil check per event and nothing else — the counters are plain
// atomic increments, safe inside the allocation-free hot-path contract.
type EngineCounters struct {
	// Recomputes counts single-source Dijkstra runs (incremental and
	// rebuild alike, including the initial build).
	Recomputes *Counter
	// Invalidations counts ball-invalidation events: a DetachVertex or
	// rewritten row marking a source set dirty.
	Invalidations *Counter
	// Rebuilds counts whole-graph rebuilds: the initial build, from-scratch
	// resets and bulk fallbacks.
	Rebuilds *Counter
}

// Pipeline bundles every instrumentation hook threaded through the
// resolution pipeline: the per-stage LoopTrace plus the engine and loop
// counters. core.Config carries one (nil disables instrumentation
// entirely); the HTTP server threads the same Pipeline into every session
// it prepares (remp.PreparePipelineWith), so one server-wide set of
// series aggregates all sessions. All methods are nil-receiver-safe.
type Pipeline struct {
	// Trace times the loop stages; nil disables timing.
	Trace *LoopTrace
	// Engine counts propagation-engine events across all shards.
	Engine EngineCounters
	// Batches counts published question batches (loop turns).
	Batches *Counter
	// Questions counts answered questions applied to loops.
	Questions *Counter
}

// StageStart begins a stage span (0 on a nil pipeline or trace).
func (p *Pipeline) StageStart() int64 {
	if p == nil {
		return 0
	}
	return p.Trace.Start()
}

// StageEnd ends a stage span begun at a StageStart reading.
func (p *Pipeline) StageEnd(s Stage, start int64) {
	if p == nil {
		return
	}
	p.Trace.End(s, start)
}

// EngineCounters returns the engine counter set (zero value when nil).
func (p *Pipeline) EngineCounters() EngineCounters {
	if p == nil {
		return EngineCounters{}
	}
	return p.Engine
}

// AddBatch counts one published batch.
func (p *Pipeline) AddBatch() {
	if p == nil {
		return
	}
	p.Batches.Inc()
}

// AddQuestion counts one applied answer.
func (p *Pipeline) AddQuestion() {
	if p == nil {
		return
	}
	p.Questions.Inc()
}
