package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/simvec"
	"repro/internal/strsim"
)

// Prepared holds what the human–machine loop reads of stage 1 (ER graph
// construction) plus the fitted consistency model and probabilistic engine
// shards. Of the candidates it keeps only the retained ones — the graph's
// vertices — with their similarity vectors and priors by vertex index,
// each distinct (vector, prior) row stored once; nothing keyed by
// candidate pair outlives Prepare. It is immutable once
// Prepare returns, but for the isolated-pair classifier's state (iso),
// which is guarded: a loop keeps everything it changes in the Loop and its
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

	// rows holds each distinct row once, row r at rows[r*(dim+1):(r+1)*(dim+1)]:
	// a similarity vector (Vector), then a prior (Prior). rowOf[i] is
	// vertex i's row, so vertices with bitwise-equal rows share one, and a
	// row is never written after Prepare. The row is the isolated-pair
	// classifier's feature vector, read in place.
	rowOf []int32
	rows  []float64
	dim   int
	// iso is the isolated-pair classifier's plan-level state: its inputs,
	// built on the first classification, and a memo of its outcomes. It is
	// the one part of a Prepared that changes after Prepare returns.
	iso isoPlan

	// shards holds the engine shards the loop runs concurrently: the
	// graph's connected vertices — those with an edge — split along
	// connected components over relational edges, binned into
	// weight-balanced shards (one shard is a partition of one), shard s
	// over the subgraph they induce with its own probabilistic graph;
	// shard states work on clones of that. No isolated vertex is in one.
	// components counts the connected components.
	// labelIdx[s] lists shard s's labels as indexes into p.Graph.Labels():
	// a re-estimation rebuilds only the shards holding a label that moved.
	shards     []*Shard
	components int
	labelIdx   [][]int32
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
	return p.row(i)[:p.dim:p.dim]
}

// Prior returns vertex i's prior match probability Pr[m_p], the label
// similarity blocking gave its pair.
func (p *Prepared) Prior(i int) float64 { return p.row(i)[p.dim] }

// row returns vertex i's similarity vector with its prior appended,
// read-only: vertices with equal rows share it.
func (p *Prepared) row(i int) []float64 {
	w := p.dim + 1
	r := int(p.rowOf[i]) * w
	return p.rows[r : r+w : r+w]
}

// NumRows returns the number of distinct (vector, prior) rows the
// vertices share.
func (p *Prepared) NumRows() int { return len(p.rows) / (p.dim + 1) }

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
// on return: gather copies out each distinct vector and prior. So are ws,
// the one Workspace the label and literal words of the call are cut in,
// and the literal corpus.
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
	ws := new(strsim.Workspace)

	// pages lists the candidates in pair order: Join's pages, or blk's.
	var pages [][]blocking.Candidate
	if blk == nil {
		tb := cfg.Obs.StageStart()
		pages, p.Initial = blocking.Join(k1, k2, blocking.Options{
			Threshold: cfg.LabelSimThreshold,
			Runner:    par.Pool(),
		}, ws)
		cfg.Obs.StageEnd(obs.StageBlock, tb)
	} else {
		pages, p.Initial = [][]blocking.Candidate{blk.Candidates}, blk.Initial
	}

	// One corpus serves both similarity stages: a literal attribute
	// matching read is not read again for the vectors.
	ts := cfg.Obs.StageStart()
	corpus := strsim.NewCorpus(k1, k2, ws)
	amOpts := attrmatch.DefaultOptions()
	amOpts.LiteralThreshold = cfg.LiteralThreshold
	amOpts.Runner = par.Pool()
	p.AttrMatches = attrmatch.FindMatchesIn(corpus, p.Initial, amOpts)

	p.Builder = simvec.NewBuilder(k1, k2, p.AttrMatches, cfg.LiteralThreshold)
	p.Builder.SetRunner(par.Pool())
	p.dim = p.Builder.Dim()
	if retained == nil {
		n := 0
		for _, page := range pages {
			n += len(page)
		}
		cands := make([]pair.Pair, 0, n)
		for _, page := range pages {
			for _, c := range page {
				cands = append(cands, c.Pair)
			}
		}
		flat := p.Builder.AllIn(cands, corpus)
		keep := simvec.NewFlatPruner(cands, flat, p.dim).Keep(cands, cfg.K)
		// keep ascends, so one cursor walks the pages: candidate k is
		// pages[pg][k-base].
		pg, base := 0, 0
		p.gather(len(keep), func(i int) (pair.Pair, simvec.Vector, float64) {
			k := int(keep[i])
			for k-base >= len(pages[pg]) {
				base, pg = base+len(pages[pg]), pg+1
			}
			return cands[k], flat[k*p.dim : (k+1)*p.dim], pages[pg][k-base].Prior
		})
	} else {
		flat := p.Builder.AllIn(retained, corpus)
		p.gather(len(retained), func(i int) (pair.Pair, simvec.Vector, float64) {
			prior, ok := blk.Priors[retained[i]]
			if !ok {
				panic(fmt.Errorf("core: retained pair %v is not a candidate of the blocking result, so it has no prior", retained[i]))
			}
			return retained[i], flat[i*p.dim : (i+1)*p.dim], prior
		})
	}
	cfg.Obs.StageEnd(obs.StageSimilarity, ts)

	tg := cfg.Obs.StageStart()
	p.Graph = ergraph.Build(k1, k2, p.Retained)
	p.Retained = p.Graph.Vertices()
	p.byEntity1 = newEntityIndex(p.Retained, true)
	p.byEntity2 = newEntityIndex(p.Retained, false)
	cfg.Obs.StageEnd(obs.StageGraph, tg)

	tf := cfg.Obs.StageStart()
	p.Consistency = p.fitConsistency(p.Initial, consistency.Fit)
	cfg.Obs.StageEnd(obs.StageFit, tf)

	tsh := cfg.Obs.StageStart()
	p.initShards()
	cfg.Obs.StageEnd(obs.StageShards, tsh)
	return p
}

// gather sets the n retained pairs, at(i) giving the i-th with its vector
// and prior. Their rows are interned by their exact float64 bits (so −0
// and NaN payloads stay as they are): vertex i gets the id of the first
// vertex's row equal to its own, and each distinct row is copied once.
func (p *Prepared) gather(n int, at func(i int) (pair.Pair, simvec.Vector, float64)) {
	w := p.dim + 1
	p.Retained = make([]pair.Pair, n)
	p.rowOf = make([]int32, n)
	ids := make(map[string]int32)
	row := make([]float64, w)
	key := make([]byte, 0, 8*w)
	var rows []float64
	for i := range n {
		var v simvec.Vector
		p.Retained[i], v, row[p.dim] = at(i)
		copy(row, v)
		key = key[:0]
		for _, x := range row {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
			rows = append(rows, row...)
		}
		p.rowOf[i] = id
	}
	p.rows = slices.Clone(rows) // without append's spare capacity
}

// priors returns every vertex's prior, by vertex index, in a new slice.
func (p *Prepared) priors() []float64 {
	out := make([]float64, len(p.Retained))
	for i := range out {
		out[i] = p.Prior(i)
	}
	return out
}

// fitConsistency estimates (ε1, ε2) for every edge label from the value
// distribution over the given matches (§V-A), with consistency.Fit or
// the direct estimator consistency.FromCounts. The observations are
// gathered once, by newSeedStats: KnownL counts, per match, the values
// whose counterpart is itself in the match set — the observed lower bound
// for the latent variable. Labels are fitted independently, so the fits
// fan out on par.Pool.
func (p *Prepared) fitConsistency(seeds []pair.Pair, fit func([]consistency.Observation, consistency.Options) consistency.Estimate) map[ergraph.RelPair]consistency.Estimate {
	st := newSeedStats(p, seeds)
	labels := p.Graph.Labels()
	ests := make([]consistency.Estimate, len(labels))
	par.Pool().ForEach(len(labels), func(i int) {
		ests[i] = fit(st.labels[i].obs, consistency.DefaultOptions())
	})
	out := make(map[ergraph.RelPair]consistency.Estimate, len(labels))
	for i, label := range labels {
		out[label] = ests[i]
	}
	return out
}
