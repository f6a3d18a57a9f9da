package core

import (
	"slices"

	"repro/internal/ergraph"
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

// shardPipe is one engine shard's slice of the prepared pipeline: the
// induced component subgraph and its probabilistic counterpart. Because the
// partition respects relational edges, every edge of a shard vertex lives
// in the same shard, so the subgraph pipeline computes bit-identical
// probabilities and propagation to the monolithic one restricted to the
// shard. Like the rest of the Prepared it is read-only once built: shard
// states clone prob and share everything else.
type shardPipe struct {
	graph *ergraph.Graph
	prob  *propagation.ProbGraph
	// prior is the prepared prior of every shard vertex, by local index.
	prior []float64
	// globalIdx maps shard-local vertex indexes to p.Graph indexes; nil
	// means identity (the single-shard pipe reuses p.Graph directly).
	globalIdx []int
	// labels is the set of edge labels present in the shard (the estimates
	// a rebuild of it consumes) and labelIdx their indexes in
	// p.Graph.Labels(), used to skip re-estimation rebuilds when no label
	// the shard depends on moved.
	labels   []ergraph.RelPair
	labelIdx []int32
}

// global maps a shard-local vertex index to the global p.Graph index.
func (sp *shardPipe) global(local int) int {
	if sp.globalIdx == nil {
		return local
	}
	return sp.globalIdx[local]
}

// initShards splits the graph's vertices once. The isolated ones (§VII-B:
// propagation can neither reach them nor start from them) become p.isolated
// — a loop itself holds them, as a shard with no engine. Only the vertices
// with an edge are partitioned into engine shards. A single-shard pipeline reuses the global graph and
// populates p.Prob exactly as the unsharded pipeline always has (its shard
// state passes over the isolated vertices, see NewShardState); a sharded
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
	params := propagation.Params{Priors: p.Priors, Consistency: p.Consistency}
	globalLabel := make(map[ergraph.RelPair]int32, len(g.Labels()))
	for li, label := range g.Labels() {
		globalLabel[label] = int32(li)
	}
	newPipe := func(g *ergraph.Graph, globalIdx []int) *shardPipe {
		sp := &shardPipe{
			graph:     g,
			prob:      propagation.BuildProb(g, p.K1, p.K2, params),
			prior:     make([]float64, g.NumVertices()),
			globalIdx: globalIdx,
			labels:    g.Labels(),
			labelIdx:  make([]int32, len(g.Labels())),
		}
		for i, v := range g.Vertices() {
			sp.prior[i] = p.Priors[v]
		}
		for i, label := range sp.labels {
			sp.labelIdx[i] = globalLabel[label]
		}
		return sp
	}
	if count <= 1 {
		p.pipes = []*shardPipe{newPipe(g, nil)}
		p.Prob = p.pipes[0].prob
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
	pipes := make([]*shardPipe, p.Part.NumShards())
	p.Cfg.scheduler().ForEach(len(pipes), func(s int) {
		vs := p.Part.Shard(s)
		globalIdx := make([]int, len(vs))
		for i, v := range vs {
			globalIdx[i] = g.IndexOf(v)
			p.home[globalIdx[i]] = int32(s)
		}
		pipes[s] = newPipe(g.Subgraph(vs), globalIdx)
	})
	p.pipes = pipes
}

// singleton returns isolated vertex i as a candidate question: labelled a
// match it resolves itself alone, and stays that way until it is resolved.
func (p *Prepared) singleton(i int) selection.Candidate {
	return selection.Candidate{Pair: p.Graph.Vertices()[p.isolated[i]], Prob: p.isoPrior[i], Inferred: p.isolated[i : i+1 : i+1]}
}

// NumShards returns the number of engine shards the pipeline's connected
// vertices were split into (1 when sharding is off, and for a graph
// without an edge). The isolated vertices are in none of them.
func (p *Prepared) NumShards() int { return len(p.pipes) }

// ShardSizes returns the number of vertices with an edge per engine
// shard, the shard assignment fingerprint recorded by session snapshots.
func (p *Prepared) ShardSizes() []int {
	out := make([]int, len(p.pipes))
	for i, sp := range p.pipes {
		out[i] = sp.graph.NumVertices()
	}
	if p.Part == nil {
		out[0] -= len(p.isolated) // the one pipe's graph is the whole one
	}
	return out
}
