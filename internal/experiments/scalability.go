package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/propagation"
	"repro/internal/selection"
	"repro/internal/simvec"
)

// ScalePoint is one point of Figure 6: the runtime of one algorithm on a
// fraction of the input pairs.
type ScalePoint struct {
	Algorithm string
	Fraction  float64
	Elapsed   time.Duration
}

// ShardPoint is one row of the shard-count speedup curve: the end-to-end
// human–machine loop runtime at one shard count, its speedup over the
// monolithic run, and whether the resolved pairs matched the monolithic
// reference exactly.
type ShardPoint struct {
	Shards    int     `json:"shards"`
	PrepareNS int64   `json:"prepare_ns"`
	LoopNS    int64   `json:"loop_ns"`
	Speedup   float64 `json:"speedup"`
	Questions int     `json:"questions"`
	F1        float64 `json:"f1"`
	// Stages breaks LoopNS down by pipeline stage (prepare, infer,
	// select, apply, reestimate, classify → cumulative nanoseconds),
	// measured by the same obs.LoopTrace the server exports on /metrics.
	Stages     map[string]int64 `json:"stage_ns,omitempty"`
	Equivalent bool             `json:"equivalent"`
}

// ShardReport is the machine-readable result of the shard scalability
// experiment (remp-bench -experiment shards -json).
type ShardReport struct {
	Dataset    string       `json:"dataset"`
	Vertices   int          `json:"vertices"`
	Edges      int          `json:"edges"`
	Components int          `json:"components"`
	Points     []ShardPoint `json:"points"`
}

// Check is the experiment's verdict, nil when it holds: every sharded run
// resolved exactly the monolithic reference's pairs, over engine shards
// that hold every vertex with an edge and none without.
func (r *ShardReport) Check() error {
	for _, pt := range r.Points {
		if !pt.Equivalent {
			return fmt.Errorf("sharded run at %d shards diverged from the monolithic result or split its vertices wrongly", pt.Shards)
		}
	}
	return nil
}

// checkSplit verifies the vertex split Prepare made: the engine shards and
// the isolated vertices together are the graph's vertices, and no shard
// holds a vertex without an edge.
func checkSplit(p *core.Prepared) error {
	isolated := pair.NewSet(p.Graph.Isolated()...)
	engine := 0
	for _, n := range p.ShardSizes() {
		engine += n
	}
	if engine+isolated.Len() != p.Graph.NumVertices() {
		return fmt.Errorf("%d engine-shard vertices + %d isolated ≠ %d graph vertices", engine, isolated.Len(), p.Graph.NumVertices())
	}
	for s := 0; s < p.NumShards(); s++ {
		for _, v := range p.Shard(s).Vertices() {
			if isolated.Has(v) {
				return fmt.Errorf("shard %d holds %v, a vertex without an edge", s, v)
			}
		}
	}
	return nil
}

// ShardScalability measures the sharded resolution loop on the clustered
// synthetic graph: for each shard count, the full human–machine loop runs
// to completion against an oracle crowd and is timed end to end (initial
// engine build through final classification); every sharded outcome is
// checked for exact equivalence with the monolithic reference via the
// cross-shard monotonicity check. The speedup comes from three scopes a
// monolithic pipeline cannot apply — per-shard re-estimation rebuilds,
// per-shard candidate/selection caching, settled-shard freezing — plus
// shard-parallel fan-out on multi-core hosts.
func ShardScalability(w io.Writer, seed int64) *ShardReport {
	return shardScalability(w, seed, 120, 60)
}

func shardScalability(w io.Writer, seed int64, clusters, meanSize int) *ShardReport {
	header(w, "Shard speedup: end-to-end loop runtime vs shard count (clustered synthetic)")
	ds := datasets.Clustered(clusters, meanSize, seed)
	report := &ShardReport{Dataset: ds.Name}
	var refOutcome eval.Outcome
	var baseLoop time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Shards = shards
		tr := obs.NewLoopTrace(obs.WallClock())
		cfg.Obs = &obs.Pipeline{Trace: tr}
		start := time.Now()
		p := core.Prepare(ds.K1, ds.K2, cfg)
		prep := time.Since(start)
		start = time.Now()
		res := p.Run(core.NewOracleAsker(ds.Gold.IsMatch))
		loop := time.Since(start)

		if shards == 1 {
			report.Vertices = p.Graph.NumVertices()
			report.Edges = p.Graph.NumEdges()
			baseLoop = loop
			refOutcome = eval.Outcome{Matches: res.Matches, NonMatches: res.NonMatches}
		}
		report.Components = p.NumComponents()
		equivalent := true
		if err := checkSplit(p); err != nil {
			equivalent = false
			fmt.Fprintf(w, "  !! vertex split at %d shards: %v\n", shards, err)
		}
		if shards > 1 {
			if err := eval.ShardDivergence(refOutcome, eval.Outcome{Matches: res.Matches, NonMatches: res.NonMatches}); err != nil {
				equivalent = false
				fmt.Fprintf(w, "  !! divergence at %d shards: %v\n", shards, err)
			}
		}
		if err := eval.OneToOne(res.Matches); err != nil {
			equivalent = false
			fmt.Fprintf(w, "  !! 1:1 violation at %d shards: %v\n", shards, err)
		}
		prf := pair.Evaluate(res.Matches, ds.Gold)
		speedup := float64(baseLoop) / float64(loop)
		fmt.Fprintf(w, "%d shard(s): prepare %8v  loop %8v  speedup %.2fx  Q=%d  F1=%.3f  equivalent=%v\n",
			shards, prep.Round(time.Millisecond), loop.Round(time.Millisecond), speedup, res.Questions, prf.F1, equivalent)
		report.Points = append(report.Points, ShardPoint{
			Shards: shards, PrepareNS: prep.Nanoseconds(), LoopNS: loop.Nanoseconds(),
			Speedup: speedup, Questions: res.Questions, F1: prf.F1,
			Stages: tr.Totals(), Equivalent: equivalent,
		})
	}
	return report
}

// Figure6 reproduces "Running time w.r.t. different portion of entity
// pairs" on the D-Y dataset: Algorithm 1 (partial-order pruning) on 25–100%
// of the candidate matches Mc, and Algorithm 2 (inferred-set discovery) +
// Algorithm 3 (greedy question selection) on 25–100% of the retained
// matches Mrd.
func Figure6(w io.Writer, seed int64) []ScalePoint {
	header(w, "Figure 6: running time vs portion of entity pairs (D-Y)")
	ds, err := datasets.ByName("d-y", seed)
	if err != nil {
		panic(err)
	}
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	var out []ScalePoint

	// Shared stage-1 artifacts.
	blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
	am := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, attrmatch.DefaultOptions())
	builder := simvec.NewBuilder(ds.K1, ds.K2, am, 0.9)
	candPairs := make([]pair.Pair, len(blk.Candidates))
	for i, c := range blk.Candidates {
		candPairs[i] = c.Pair
	}

	// Algorithm 1 on fractions of Mc (vector construction included, as in
	// the paper's analysis where it dominates).
	for _, f := range fractions {
		n := int(f * float64(len(candPairs)))
		subset := candPairs[:n]
		start := time.Now()
		pruner := simvec.NewPruner(subset, builder.All(subset))
		_ = pruner.Prune(subset, 4)
		el := time.Since(start)
		fmt.Fprintf(w, "Algorithm 1 @ %3.0f%% of Mc  (%6d pairs): %v\n", 100*f, n, el)
		out = append(out, ScalePoint{Algorithm: "Algorithm 1", Fraction: f, Elapsed: el})
	}

	// Algorithms 2 and 3 on fractions of Mrd, over each fraction's
	// monolithic probabilistic graph; ShardSpeedup measures the sharded
	// loop.
	cfg := core.DefaultConfig()
	full := core.Prepare(ds.K1, ds.K2, cfg)
	for _, f := range fractions {
		n := int(f * float64(len(full.Retained)))
		subset := full.Retained[:n]
		sub := core.PrepareOnRetained(ds.K1, ds.K2, cfg, subset, blk)
		prob := propagation.BuildProb(sub.Graph, ds.K1, ds.K2, propagation.Params{Priors: blk.Priors, Consistency: sub.Consistency})

		start := time.Now()
		inferred := prob.InferAll(cfg.Tau)
		el2 := time.Since(start)
		fmt.Fprintf(w, "Algorithm 2 @ %3.0f%% of Mrd (%6d pairs): %v\n", 100*f, n, el2)
		out = append(out, ScalePoint{Algorithm: "Algorithm 2", Fraction: f, Elapsed: el2})

		start = time.Now()
		cands := make([]selection.Candidate, 0, n)
		for i, v := range sub.Graph.Vertices() {
			inf := []int{i}
			for _, en := range inferred.Ball(i) {
				inf = append(inf, int(en.Idx))
			}
			cands = append(cands, selection.Candidate{Pair: v, Prob: sub.Prior(i), Inferred: inf})
		}
		_ = (selection.Greedy{}).Select(cands, 10)
		el3 := time.Since(start)
		fmt.Fprintf(w, "Algorithm 3 @ %3.0f%% of Mrd (%6d pairs): %v\n", 100*f, n, el3)
		out = append(out, ScalePoint{Algorithm: "Algorithm 3", Fraction: f, Elapsed: el3})
	}
	return out
}
