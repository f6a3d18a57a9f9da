package core

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// Auto-sharding thresholds, in vertices with an edge: below
// autoShardMinVertices the per-shard bookkeeping costs more than it saves,
// so Shards = 0 (auto) keeps one shard; above it, one shard per
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
// the only ones a shard holds: 1 (or none to hold) is one shard, an
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
	// globalIdx maps shard-local vertex indexes to the whole graph's.
	globalIdx []int
	// est are the consistency estimates prob reflects, read at the shard's
	// labels: the Prepared's own map, or those labels alone once decoded.
	est      map[ergraph.RelPair]consistency.Estimate
	tau      float64
	strategy selection.Strategy

	// counters belongs to the process and stays off the wire: it is where
	// the engines count their work.
	counters obs.EngineCounters
}

// Labels returns the edge labels present in the shard — the estimates a
// rebuild of it consumes (the remote runner ships only these).
func (sh *Shard) Labels() []ergraph.RelPair { return sh.graph.Labels() }

// Vertices returns the shard's vertices, by shard-local index (do not
// modify).
func (sh *Shard) Vertices() []pair.Pair { return sh.graph.Vertices() }

// Has reports whether q is a vertex of the shard.
func (sh *Shard) Has(q pair.Pair) bool { return sh.graph.IndexOf(q) >= 0 }

// initShards splits the graph's vertices once. The isolated ones (§VII-B:
// propagation can neither reach them nor start from them) become p.isolated
// — a loop itself holds them, as a shard with no engine. The vertices with
// an edge are partitioned into engine shards, one probabilistic subgraph
// each, built concurrently; a one-shard pipeline is a partition of one.
// Everything crosses the boundary as graph indexes: the partition hands
// each shard its members as indexes, the shard subgraph is cut from them
// (ergraph.Graph.Cut: no pair is searched for), and they are the shard's
// global indexes as they stand. The partition itself is dropped: each
// shard's subgraph lists its vertices, and p.components keeps its count.
func (p *Prepared) initShards() {
	g := p.Graph
	verts := g.Vertices()
	p.home = make([]int32, len(verts))
	isolated := func(i int) bool { return len(g.OutIndexesAt(i)) == 0 && len(g.InIndexesAt(i)) == 0 }
	nIso := 0
	for i := range verts {
		if isolated(i) {
			nIso++
		}
	}
	// Both lists are sized by the count: isolated lives as long as the
	// Prepared, and neither grows.
	p.isolated = make([]int, 0, nIso)
	connected := make([]int32, 0, len(verts)-nIso) // the graph indexes of the vertices with an edge
	for i := range verts {
		if isolated(i) {
			p.home[i] = ^int32(len(p.isolated))
			p.isolated = append(p.isolated, i)
		} else {
			connected = append(connected, int32(i))
		}
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
	part := partition.Split(pairs, func(i int) []int32 {
		row = row[:0]
		for _, gj := range g.OutIndexesAt(int(connected[i])) {
			row = append(row, local[gj])
		}
		return row
	}, resolveShardCount(p.Cfg.Shards, len(connected)))
	p.components = part.NumComponents()
	p.shards = make([]*Shard, part.NumShards())
	par.Pool().ForEach(len(p.shards), func(s int) {
		members := part.Members(s)
		parent := make([]int32, len(members))
		for k, i := range members {
			parent[k] = connected[i]
		}
		sub := g.Cut(parent)
		sh := &Shard{
			graph:     sub,
			prior:     make([]float64, len(parent)),
			globalIdx: make([]int, len(parent)),
			est:       p.Consistency,
			tau:       p.Cfg.Tau,
			strategy:  p.Cfg.Strategy,
			counters:  p.Cfg.Obs.EngineCounters(),
		}
		for i, gi := range parent {
			sh.globalIdx[i] = int(gi)
			sh.prior[i] = p.Prior(int(gi))
			p.home[gi] = int32(s)
		}
		sh.prob = propagation.BuildProbDense(sub, sh.prior, sh.est)
		p.shards[s] = sh
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
	v := p.isolated[i]
	return selection.Candidate{Pair: p.Retained[v], Prob: p.Prior(v), Inferred: p.isolated[i : i+1 : i+1]}
}

// NumShards returns the number of engine shards the pipeline's connected
// vertices were split into (at least one, empty for a graph without an
// edge). The isolated vertices are in none of them.
func (p *Prepared) NumShards() int { return len(p.shards) }

// Shard returns engine shard s.
func (p *Prepared) Shard(s int) *Shard { return p.shards[s] }

// ShardSizes returns the number of vertices with an edge per engine
// shard, the shard assignment fingerprint recorded by session snapshots.
func (p *Prepared) ShardSizes() []int {
	out := make([]int, len(p.shards))
	for s, sh := range p.shards {
		out[s] = len(sh.globalIdx)
	}
	return out
}

// NumComponents returns the number of connected components the vertices
// with an edge form: what the engine shards were binned from.
func (p *Prepared) NumComponents() int { return p.components }
