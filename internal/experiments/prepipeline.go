package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/par"
	"repro/internal/simvec"
)

// PrepareReport is the machine-readable result of the prepare experiment
// (remp-bench -experiment prepare -json). NaiveNS/Speedup are zero when
// the naive cross-check was skipped (it is quadratic in hot spots and
// infeasible at the 1M scale the indexed path is built for).
type PrepareReport struct {
	Dataset    string `json:"dataset"`
	Entities   int    `json:"entities_per_kb"`
	Candidates int    `json:"candidates"`
	Initial    int    `json:"initial"`
	Retained   int    `json:"retained"`
	// PrepareNS is end-to-end core.Prepare wall time on the indexed path;
	// StageNS breaks out its block/similarity sub-stages.
	PrepareNS int64            `json:"prepare_ns"`
	StageNS   map[string]int64 `json:"stage_ns,omitempty"`
	// IndexedNS and NaiveNS are the wall time, on the indexed and the
	// retained-naive path, of candidate generation, the simA matrix and
	// the candidates' similarity vectors, run outside Prepare (the indexed
	// run also finds the attribute matches the vectors read; the naive run
	// reuses them). Speedup is their ratio.
	IndexedNS  int64   `json:"indexed_ns"`
	NaiveNS    int64   `json:"naive_ns,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Equivalent bool    `json:"equivalent"`
}

// minPrepareSpeedup is the indexed-vs-naive pre-pipeline speedup Check
// requires whenever the naive cross-check ran.
const minPrepareSpeedup = 5.0

// Check is the experiment's verdict, nil when it holds: the indexed path
// must be byte-identical to the naive one and, when the naive cross-check
// ran, at least minPrepareSpeedup times faster.
func (r *PrepareReport) Check() error {
	if !r.Equivalent {
		return fmt.Errorf("pre-pipeline (%s) diverged from the naive path", r.Dataset)
	}
	if r.NaiveNS > 0 && r.Speedup < minPrepareSpeedup {
		return fmt.Errorf("pre-pipeline speedup %.2fx below the %.1fx floor", r.Speedup, minPrepareSpeedup)
	}
	return nil
}

// NaiveFeasibleLimit bounds the automatic naive cross-check: the retained
// string path marks every token-sharing pair in a Go map, which is
// memory- and time-quadratic in posting activity and stops being runnable
// long before 1M entities. cmd/remp-bench enables the cross-check
// automatically at or below this size.
const NaiveFeasibleLimit = 200_000

// PreparePipeline measures the indexed pre-pipeline on the scale-<n>
// stress dataset and, when withNaive, cross-checks every intermediate
// against the retained naive implementations (byte equality) and reports
// the speedup.
func PreparePipeline(w io.Writer, seed int64, n int, withNaive bool) *PrepareReport {
	header(w, fmt.Sprintf("Pre-pipeline — indexed blocking + batched similarity (scale-%d, seed %d)", n, seed))
	ds := datasets.Scale(seed, n)
	rep := &PrepareReport{Dataset: ds.Name, Entities: n, Equivalent: !withNaive}

	// End-to-end Prepare with stage tracing on the indexed path.
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	tr := obs.NewLoopTrace(obs.WallClock())
	cfg.Obs = &obs.Pipeline{Trace: tr}
	t0 := time.Now()
	p := core.Prepare(ds.K1, ds.K2, cfg)
	rep.PrepareNS = time.Since(t0).Nanoseconds()
	rep.StageNS = tr.Totals()
	rep.Initial = len(p.Initial)
	rep.Retained = len(p.Retained)

	// Isolated pre-pipeline timing, indexed path (as Prepare runs it); the
	// candidate count is its blocking's.
	sched := par.Pool()
	bOpts := blocking.Options{Threshold: cfg.LabelSimThreshold, Runner: sched}
	amOpts := attrmatch.DefaultOptions()
	amOpts.LiteralThreshold = cfg.LiteralThreshold
	amOpts.Runner = sched
	t0 = time.Now()
	blk := blocking.Generate(ds.K1, ds.K2, bOpts)
	sims := attrmatch.Similarities(ds.K1, ds.K2, blk.Initial, amOpts)
	matches := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, amOpts)
	builder := simvec.NewBuilder(ds.K1, ds.K2, matches, cfg.LiteralThreshold)
	builder.SetRunner(sched)
	cands := make([]pair.Pair, len(blk.Candidates))
	for i, c := range blk.Candidates {
		cands[i] = c.Pair
	}
	vecs := builder.All(cands)
	rep.IndexedNS = time.Since(t0).Nanoseconds()
	rep.Candidates = len(blk.Candidates)
	fmt.Fprintf(w, "entities/KB %d   candidates %d   initial %d   retained %d\n",
		n, rep.Candidates, rep.Initial, rep.Retained)
	fmt.Fprintf(w, "core.Prepare      %12v  (block %v, similarity %v)\n",
		time.Duration(rep.PrepareNS).Round(time.Millisecond),
		time.Duration(rep.StageNS["block"]).Round(time.Millisecond),
		time.Duration(rep.StageNS["similarity"]).Round(time.Millisecond))
	fmt.Fprintf(w, "pre-pipeline      %12v  (indexed)\n", time.Duration(rep.IndexedNS).Round(time.Millisecond))

	if !withNaive {
		fmt.Fprintf(w, "naive cross-check skipped (n > %d or disabled)\n", NaiveFeasibleLimit)
		return rep
	}

	t0 = time.Now()
	nblk := blocking.GenerateNaive(ds.K1, ds.K2, blocking.Options{Threshold: cfg.LabelSimThreshold})
	nsims := attrmatch.SimilaritiesNaive(ds.K1, ds.K2, nblk.Initial, amOpts)
	nbuilder := simvec.NewBuilder(ds.K1, ds.K2, matches, cfg.LiteralThreshold)
	nvecs := make([]simvec.Vector, len(cands))
	for i, q := range cands {
		nvecs[i] = nbuilder.Vector(q)
	}
	rep.NaiveNS = time.Since(t0).Nanoseconds()
	rep.Speedup = float64(rep.NaiveNS) / float64(rep.IndexedNS)

	rep.Equivalent = reflect.DeepEqual(blk.Candidates, nblk.Candidates) &&
		reflect.DeepEqual(blk.Initial, nblk.Initial) &&
		reflect.DeepEqual(blk.Priors, nblk.Priors) &&
		reflect.DeepEqual(sims, nsims) &&
		reflect.DeepEqual(vecs, nvecs)
	fmt.Fprintf(w, "pre-pipeline      %12v  (naive)\n", time.Duration(rep.NaiveNS).Round(time.Millisecond))
	fmt.Fprintf(w, "speedup           %12.2fx  byte-identical: %v\n", rep.Speedup, rep.Equivalent)
	if !rep.Equivalent {
		fmt.Fprintf(w, "WARNING: indexed and naive pre-pipelines diverged\n")
	}
	return rep
}
