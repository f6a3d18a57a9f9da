package core

import (
	"slices"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// Auto-sharding thresholds, in vertices with an edge: below
// autoShardMinVertices the per-shard bookkeeping costs more than it saves,
// so Shards = 0 (auto) stays single-shard; above it, one shard per
// ~autoShardVerticesPerShard vertices, capped at maxAutoShards. Sharding
// bounds the peak size of any one engine's dist/rev ball maps and lets
// settled shards release them entirely, so the cap is deliberately above
// typical core counts.
const (
	autoShardMinVertices      = 4096
	autoShardVerticesPerShard = 1024
	maxAutoShards             = 16
)

// resolveShardCount maps the configured Shards value onto a concrete
// count for a graph with the given number of vertices that have an edge —
// the only ones a shard holds: 1 (or none to hold) disables sharding, an
// explicit count is honored up to the vertex count, and 0 picks
// automatically from the count.
func resolveShardCount(requested, vertices int) int {
	switch {
	case vertices == 0 || requested == 1:
		return 1
	case requested > 1:
		if requested > vertices {
			return vertices
		}
		return requested
	default: // auto
		if vertices < autoShardMinVertices {
			return 1
		}
		s := vertices / autoShardVerticesPerShard
		if s > maxAutoShards {
			s = maxAutoShards
		}
		return s
	}
}

// Shard is one engine shard, self-contained: the induced component
// subgraph, its probabilistic counterpart, and what a ShardState reads
// beside them — everything an engine needs and nothing else of the
// Prepared, so a shard can leave the process (AppendBinary, DecodeShard)
// and run on a cluster worker that never sees a KB. Because the partition
// respects relational edges, every edge of a shard vertex lives in the same
// shard, so the subgraph pipeline computes bit-identical probabilities and
// propagation to the monolithic one restricted to the shard. Like the rest
// of the Prepared it is read-only once built: shard states clone prob and
// share everything else.
type Shard struct {
	graph *ergraph.Graph
	prob  *propagation.ProbGraph
	// prior is the prepared prior of every shard vertex, by local index.
	prior []float64
	// globalIdx maps shard-local vertex indexes to the whole graph's; nil
	// means identity (the single-shard pipeline's shard is the whole graph).
	globalIdx []int
	// est are the consistency estimates prob reflects, read at the shard's
	// labels: the Prepared's own map, or those labels alone once decoded.
	est      map[ergraph.RelPair]consistency.Estimate
	tau      float64
	strategy selection.Strategy

	// What follows belongs to the process and stays off the wire: where the
	// engines count their work, and the debugFullResync test hook.
	counters   obs.EngineCounters
	fullResync bool
}

// Labels returns the edge labels present in the shard — the estimates a
// rebuild of it consumes (the remote runner ships only these).
func (sh *Shard) Labels() []ergraph.RelPair { return sh.graph.Labels() }

// global maps a shard-local vertex index to the whole graph's.
func (sh *Shard) global(local int) int {
	if sh.globalIdx == nil {
		return local
	}
	return sh.globalIdx[local]
}

// initShards splits the graph's vertices once. The isolated ones (§VII-B:
// propagation can neither reach them nor start from them) become p.isolated
// — a loop itself holds them, as a shard with no engine. Only the vertices
// with an edge are partitioned into engine shards. A single-shard pipeline reuses the global graph and
// populates p.Prob exactly as the unsharded pipeline always has (its shard
// state holds the isolated vertices resolved, see NewShardState); a sharded
// one builds one probabilistic subgraph per shard concurrently and leaves
// p.Prob nil.
func (p *Prepared) initShards() {
	g := p.Graph
	verts := g.Vertices()
	p.home = make([]int32, len(verts))
	var connected []int32 // the graph indexes of the vertices with an edge
	for i, v := range verts {
		if len(g.OutIndexesAt(i)) == 0 && len(g.InIndexesAt(i)) == 0 {
			p.home[i] = ^int32(len(p.isolated))
			p.isolated = append(p.isolated, i)
			p.isoPrior = append(p.isoPrior, p.Priors[v])
		} else {
			connected = append(connected, int32(i))
		}
	}
	// The lists live as long as the Prepared: drop the growth slack.
	p.isolated, p.isoPrior = slices.Clone(p.isolated), slices.Clone(p.isoPrior)

	count := resolveShardCount(p.Cfg.Shards, len(connected))
	newShard := func(g *ergraph.Graph, globalIdx []int) *Shard {
		sh := &Shard{
			graph:      g,
			prior:      make([]float64, g.NumVertices()),
			globalIdx:  globalIdx,
			est:        p.Consistency,
			tau:        p.Cfg.Tau,
			strategy:   p.Cfg.Strategy,
			counters:   p.Cfg.Obs.EngineCounters(),
			fullResync: p.Cfg.debugFullResync,
		}
		for i, v := range g.Vertices() {
			sh.prior[i] = p.Priors[v]
		}
		sh.prob = propagation.BuildProbDense(g, sh.prior, sh.est)
		return sh
	}
	if count <= 1 {
		p.shards = []*Shard{newShard(g, nil)}
		p.Prob = p.shards[0].prob
		p.indexLabels()
		return
	}
	// The partition sees the connected vertices only, under their own dense
	// numbering; local translates a neighbor's graph index into it.
	local := make([]int32, len(verts))
	pairs := make([]pair.Pair, len(connected))
	for i, gi := range connected {
		local[gi] = int32(i)
		pairs[i] = verts[gi]
	}
	var row []int32
	p.Part = partition.Split(pairs, func(i int) []int32 {
		row = row[:0]
		for _, gj := range g.OutIndexesAt(int(connected[i])) {
			row = append(row, local[gj])
		}
		return row
	}, count)
	p.shards = make([]*Shard, p.Part.NumShards())
	p.Cfg.scheduler().ForEach(len(p.shards), func(s int) {
		vs := p.Part.Shard(s)
		globalIdx := make([]int, len(vs))
		for i, v := range vs {
			globalIdx[i] = g.IndexOf(v)
			p.home[globalIdx[i]] = int32(s)
		}
		p.shards[s] = newShard(g.Subgraph(vs), globalIdx)
	})
	p.indexLabels()
}

// indexLabels fills p.labelIdx from the built shards.
func (p *Prepared) indexLabels() {
	globalLabel := make(map[ergraph.RelPair]int32, len(p.Graph.Labels()))
	for li, label := range p.Graph.Labels() {
		globalLabel[label] = int32(li)
	}
	p.labelIdx = make([][]int32, len(p.shards))
	for s, sh := range p.shards {
		p.labelIdx[s] = make([]int32, len(sh.Labels()))
		for i, label := range sh.Labels() {
			p.labelIdx[s][i] = globalLabel[label]
		}
	}
}

// singleton returns isolated vertex i as a candidate question: labelled a
// match it resolves itself alone, and stays that way until it is resolved.
func (p *Prepared) singleton(i int) selection.Candidate {
	return selection.Candidate{Pair: p.Graph.Vertices()[p.isolated[i]], Prob: p.isoPrior[i], Inferred: p.isolated[i : i+1 : i+1]}
}

// NumShards returns the number of engine shards the pipeline's connected
// vertices were split into (1 when sharding is off, and for a graph
// without an edge). The isolated vertices are in none of them.
func (p *Prepared) NumShards() int { return len(p.shards) }

// Shard returns engine shard s.
func (p *Prepared) Shard(s int) *Shard { return p.shards[s] }

// ShardSizes returns the number of vertices with an edge per engine
// shard, the shard assignment fingerprint recorded by session snapshots.
func (p *Prepared) ShardSizes() []int {
	out := make([]int, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.graph.NumVertices()
	}
	if p.Part == nil {
		out[0] -= len(p.isolated) // the one shard's graph is the whole one
	}
	return out
}
