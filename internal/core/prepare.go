package core

import (
	"fmt"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/partition"
	"repro/internal/simvec"
)

// Prepared holds what the human–machine loop reads of stage 1 (ER graph
// construction) plus the fitted consistency model and probabilistic engine
// shards. Of the candidates it keeps only the retained ones — the graph's
// vertices — with their similarity vectors and priors by vertex index;
// nothing keyed by candidate pair outlives Prepare. It is immutable once
// Prepare returns: a loop keeps everything it changes in the Loop and its
// ShardStates, so any number of loops — concurrent ones included — run
// over one Prepared.
type Prepared struct {
	K1, K2 *kb.KB
	Cfg    Config

	// Initial is the blocking's initial match set Min, the seeds of the
	// consistency fits.
	Initial     []pair.Pair
	AttrMatches []attrmatch.Match
	Builder     *simvec.Builder
	// Retained is the retained match set Mrd: Graph.Vertices() itself, so
	// read-only.
	Retained []pair.Pair
	Graph    *ergraph.Graph
	// Consistency is the initial fit, over Initial; a loop re-estimates
	// into its own copy (Loop.est).
	Consistency map[ergraph.RelPair]consistency.Estimate

	// vec holds vertex i's similarity vector at vec[i*dim:(i+1)*dim], and
	// prior[i] its prior (Vector, Prior).
	vec   []float64
	dim   int
	prior []float64

	// Part is the assignment of the graph's connected vertices — those with
	// an edge — to engine shards (connected components over relational
	// edges, binned into weight-balanced shards), at every shard count: one
	// shard is a partition of one. No isolated vertex is in it.
	Part *partition.Partition
	// shards holds the engine shards the loop runs concurrently, shard s
	// over the subgraph induced by Part.Shard(s) with its own probabilistic
	// graph; shard states work on clones of that.
	// labelIdx[s] lists shard s's labels as indexes into p.Graph.Labels():
	// a re-estimation rebuilds only the shards holding a label that moved.
	shards   []*Shard
	labelIdx [][]int32
	// isolated lists the graph indexes of the vertices without an edge,
	// ascending (isolated[i:i+1] doubles as vertex i's inferred set). No
	// shard gathers them: a loop holds the list itself, ranks it once and
	// draws from the ranking through a cursor.
	isolated []int
	// home routes a graph vertex by its index: the engine shard holding it,
	// or ^i for isolated[i].
	home []int32

	// byEntity1/byEntity2 index graph vertices by their K1/K2 entity, used
	// to resolve same-entity competitors when a match is confirmed (the
	// 1:1 entity constraint that keeps non-match chains from being polled).
	// Competitors may live in other shards; the loop routes their
	// detachment on the serial answer-application path.
	byEntity1, byEntity2 entityIndex
}

// entityIndex lists the graph vertices of each entity on one side: the
// indexes of entity u's are order[start[u]:start[u+1]], ascending.
type entityIndex struct {
	start, order []int32
}

func newEntityIndex(vertices []pair.Pair, side1 bool) entityIndex {
	start, order := pair.GroupByEntity(vertices, side1)
	return entityIndex{start: start, order: order}
}

func (ix entityIndex) of(u kb.EntityID) []int32 { return ix.order[ix.start[u]:ix.start[u+1]] }

// blocks returns the indexes of the vertices sharing vertex i's K1 entity
// and of those sharing its K2 entity, i included in both.
func (p *Prepared) blocks(i int) [2][]int32 {
	v := p.Retained[i]
	return [2][]int32{p.byEntity1.of(v.U1), p.byEntity2.of(v.U2)}
}

// Vector returns vertex i's similarity vector, read-only.
func (p *Prepared) Vector(i int) simvec.Vector {
	return p.vec[i*p.dim : (i+1)*p.dim : (i+1)*p.dim]
}

// Prior returns vertex i's prior match probability Pr[m_p], the label
// similarity blocking gave its pair.
func (p *Prepared) Prior(i int) float64 { return p.prior[i] }

// Prepare runs ER graph construction end to end: candidate generation,
// attribute matching over initial matches, similarity-vector assembly,
// partial-order pruning (Algorithm 1), ER graph construction, relationship
// consistency fitting and neighbor propagation (the probabilistic graph).
func Prepare(k1, k2 *kb.KB, cfg Config) *Prepared {
	return prepare(k1, k2, cfg, nil, nil)
}

// PrepareOnRetained builds a pipeline over an explicit retained pair set,
// in its order, reusing the caller's blocking result blk: its initial
// matches seed the fits and its priors become the vertices' priors. Every
// retained pair must be a candidate of blk; one that is not panics, as
// Prepare's other internal misuse does. It is used by the Figure 6
// scalability sweep, which measures Algorithms 2–3 on fractions of Mrd.
func PrepareOnRetained(k1, k2 *kb.KB, cfg Config, retained []pair.Pair, blk *blocking.Result) *Prepared {
	return prepare(k1, k2, cfg, retained, blk)
}

// prepare is the one body behind both entry points: a nil blk runs
// blocking, a nil retained runs pruning over the blocking candidates.
// Either way the candidates' vectors and the blocking result are garbage
// on return: vertex i's vector and prior are copied out by position.
func prepare(k1, k2 *kb.KB, cfg Config, retained []pair.Pair, blk *blocking.Result) *Prepared {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		// Internal misuse: the public remp boundary returns this error to
		// the caller before ever reaching Prepare.
		panic(err)
	}
	t0 := cfg.Obs.StageStart()
	defer cfg.Obs.StageEnd(obs.StagePrepare, t0)
	p := &Prepared{K1: k1, K2: k2, Cfg: cfg}

	if blk == nil {
		tb := cfg.Obs.StageStart()
		blk = blocking.Generate(k1, k2, blocking.Options{
			Threshold: cfg.LabelSimThreshold,
			Runner:    cfg.scheduler(),
		})
		cfg.Obs.StageEnd(obs.StageBlock, tb)
	}
	p.Initial = blk.Initial

	ts := cfg.Obs.StageStart()
	amOpts := attrmatch.DefaultOptions()
	amOpts.LiteralThreshold = cfg.LiteralThreshold
	amOpts.Runner = cfg.scheduler()
	p.AttrMatches = attrmatch.FindMatches(k1, k2, p.Initial, amOpts)

	p.Builder = simvec.NewBuilder(k1, k2, p.AttrMatches, cfg.LiteralThreshold)
	p.Builder.SetRunner(cfg.scheduler())
	p.dim = p.Builder.Dim()
	if retained == nil {
		cands := make([]pair.Pair, len(blk.Candidates))
		for i, c := range blk.Candidates {
			cands[i] = c.Pair
		}
		vecs := p.Builder.All(cands)
		keep := simvec.NewPruner(cands, vecs).Keep(cands, cfg.K)
		p.gather(len(keep), func(i int) (pair.Pair, simvec.Vector, float64) {
			c := blk.Candidates[keep[i]]
			return c.Pair, vecs[keep[i]], c.Prior
		})
	} else {
		vecs := p.Builder.All(retained)
		p.gather(len(retained), func(i int) (pair.Pair, simvec.Vector, float64) {
			prior, ok := blk.Priors[retained[i]]
			if !ok {
				panic(fmt.Errorf("core: retained pair %v is not a candidate of the blocking result, so it has no prior", retained[i]))
			}
			return retained[i], vecs[i], prior
		})
	}
	cfg.Obs.StageEnd(obs.StageSimilarity, ts)

	p.Graph = ergraph.Build(k1, k2, p.Retained)
	p.Retained = p.Graph.Vertices()

	p.byEntity1 = newEntityIndex(p.Retained, true)
	p.byEntity2 = newEntityIndex(p.Retained, false)

	p.Consistency = p.fitConsistency(p.Initial)
	p.initShards()
	return p
}

// gather sets the n retained pairs, at(i) giving the i-th with its vector
// and prior, which are copied to vertex index i.
func (p *Prepared) gather(n int, at func(i int) (pair.Pair, simvec.Vector, float64)) {
	p.Retained = make([]pair.Pair, n)
	p.vec = make([]float64, n*p.dim)
	p.prior = make([]float64, n)
	for i := range n {
		var v simvec.Vector
		p.Retained[i], v, p.prior[i] = at(i)
		copy(p.vec[i*p.dim:], v)
	}
}

// fitConsistency estimates (ε1, ε2) for every edge label from the value
// distribution over the given matches (§V-A). KnownL counts, per match,
// the values whose counterpart is itself in the match set — the observed
// lower bound for the latent variable. Labels are fitted independently,
// so the fits fan out across the pipeline scheduler.
func (p *Prepared) fitConsistency(seeds []pair.Pair) map[ergraph.RelPair]consistency.Estimate {
	seedSet := pair.NewSet(seeds...)
	labels := p.Graph.Labels()
	ests := make([]consistency.Estimate, len(labels))
	p.Cfg.scheduler().ForEach(len(labels), func(i int) {
		obs := p.consistencyObservations(labels[i], seeds, seedSet)
		ests[i] = consistency.Fit(obs, consistency.DefaultOptions())
	})
	out := make(map[ergraph.RelPair]consistency.Estimate, len(labels))
	for i, label := range labels {
		out[label] = ests[i]
	}
	return out
}

// consistencyObservations gathers (|N1|, |N2|, knownL) triples for one
// edge label over the seed matches, following the label's direction. It is
// the from-scratch form of the evidence the loop maintains incrementally
// (seedStats).
func (p *Prepared) consistencyObservations(label ergraph.RelPair, seeds []pair.Pair, seedSet pair.Set) []consistency.Observation {
	var obs []consistency.Observation
	for _, m := range seeds {
		n1, n2 := p.neighbors(label, m)
		if len(n1) == 0 && len(n2) == 0 {
			continue
		}
		known := 0
		for _, v1 := range n1 {
			for _, v2 := range n2 {
				if seedSet.Has(pair.Pair{U1: v1, U2: v2}) {
					known++
					break
				}
			}
		}
		obs = append(obs, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: known})
	}
	return obs
}
