package core

import (
	"repro/internal/ergraph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// Auto-sharding thresholds: below autoShardMinVertices the per-shard
// bookkeeping costs more than it saves, so Shards = 0 (auto) stays
// single-shard; above it, one shard per ~autoShardVerticesPerShard
// vertices, capped at maxAutoShards. Sharding bounds the peak size of any
// one engine's dist/rev ball maps and lets settled shards release them
// entirely, so the cap is deliberately above typical core counts.
const (
	autoShardMinVertices      = 4096
	autoShardVerticesPerShard = 1024
	maxAutoShards             = 16
)

// resolveShardCount maps the configured Shards value onto a concrete
// count for a graph of the given size: 1 (or an empty graph) disables
// sharding, an explicit count is honored up to the vertex count, and 0
// picks automatically from the graph size.
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

// shardPipe is one shard's slice of the prepared pipeline: the induced
// component subgraph and its probabilistic counterpart. Because the
// partition respects relational edges, every edge of a shard vertex lives
// in the same shard, so the subgraph pipeline computes bit-identical
// probabilities and propagation to the monolithic one restricted to the
// shard. Like the rest of the Prepared it is read-only once built: shard
// states clone prob and share everything else.
type shardPipe struct {
	id    int
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

// initShards resolves the shard count and builds the per-shard pipelines.
// Single-shard pipelines reuse the global graph and populate p.Prob
// exactly as the unsharded pipeline always has; sharded ones build one
// probabilistic subgraph per shard concurrently and leave p.Prob nil.
func (p *Prepared) initShards() {
	count := resolveShardCount(p.Cfg.Shards, p.Graph.NumVertices())
	params := propagation.Params{Priors: p.Priors, Consistency: p.Consistency}
	globalLabel := make(map[ergraph.RelPair]int32, len(p.Graph.Labels()))
	for li, label := range p.Graph.Labels() {
		globalLabel[label] = int32(li)
	}
	newPipe := func(id int, g *ergraph.Graph, globalIdx []int) *shardPipe {
		sp := &shardPipe{
			id:        id,
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
		p.pipes = []*shardPipe{newPipe(0, p.Graph, nil)}
		p.Prob = p.pipes[0].prob
		return
	}
	p.Part = partition.Split(p.Graph.Vertices(), p.Graph.OutIndexesAt, count)
	pipes := make([]*shardPipe, p.Part.NumShards())
	p.Cfg.scheduler().ForEach(len(pipes), func(s int) {
		vs := p.Part.Shard(s)
		globalIdx := make([]int, len(vs))
		for i, v := range vs {
			globalIdx[i] = p.Graph.IndexOf(v)
		}
		pipes[s] = newPipe(s, p.Graph.Subgraph(vs), globalIdx)
	})
	p.pipes = pipes
}

// NumShards returns the number of shards the pipeline was split into
// (1 when sharding is off).
func (p *Prepared) NumShards() int { return len(p.pipes) }

// ShardSizes returns the vertex count per shard, the shard assignment
// fingerprint recorded by session snapshots.
func (p *Prepared) ShardSizes() []int {
	out := make([]int, len(p.pipes))
	for i, sp := range p.pipes {
		out[i] = sp.graph.NumVertices()
	}
	return out
}

// mergeCandidates interleaves per-shard candidate lists back into global
// vertex order (each candidate's Inferred[0] is its own global index, and
// each shard's list is ascending in it), so the merged list is exactly
// what a monolithic gather would produce. pos[s][i] gives the merged
// position of shard s's i-th candidate, which the benefit-ordered merge
// uses as the global tie-break.
func mergeCandidates(per [][]selection.Candidate) (merged []selection.Candidate, pos [][]int) {
	pos = make([][]int, len(per))
	total := 0
	for s, list := range per {
		pos[s] = make([]int, len(list))
		total += len(list)
	}
	if len(per) == 1 {
		for i := range pos[0] {
			pos[0][i] = i
		}
		return per[0], pos
	}
	merged = make([]selection.Candidate, 0, total)
	heads := make([]int, len(per))
	for len(merged) < total {
		best := -1
		bestIdx := 0
		for s, list := range per {
			if heads[s] >= len(list) {
				continue
			}
			gi := list[heads[s]].Inferred[0]
			if best < 0 || gi < bestIdx {
				best, bestIdx = s, gi
			}
		}
		pos[best][heads[best]] = len(merged)
		merged = append(merged, per[best][heads[best]])
		heads[best]++
	}
	return merged, pos
}
