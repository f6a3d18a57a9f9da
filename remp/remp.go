// Package remp is the public API of the Remp reproduction: crowdsourced
// collective entity resolution with relational match propagation (Huang et
// al., ICDE 2020).
//
// The entry point is Resolve, which runs the full four-stage pipeline —
// ER graph construction, relational match propagation, multiple questions
// selection and error-tolerant truth inference — against a crowdsourcing
// platform (simulated or custom):
//
//	ds := remp.Dataset{K1: kb1, K2: kb2}
//	platform := remp.NewSimulatedCrowd(gold.IsMatch, remp.CrowdConfig{})
//	result, err := remp.Resolve(ds, platform, remp.Options{})
//
// Lower-level building blocks (blocking, attribute matching, pruning,
// propagation, question selection) live in the internal packages and are
// surfaced through the Pipeline type for step-by-step inspection.
package remp

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/selection"
)

// KB re-exports the knowledge-base type; construct with NewKB.
type KB = kb.KB

// EntityID identifies an entity within one KB.
type EntityID = kb.EntityID

// Pair is an entity pair (u1 ∈ K1, u2 ∈ K2).
type Pair = pair.Pair

// Gold is a reference alignment used for evaluation and simulated crowds.
type Gold = pair.Gold

// PRF bundles precision / recall / F1.
type PRF = pair.PRF

// NewKB returns an empty knowledge base with the given name. Build it
// with its Add* and Set* methods before reading it: the first read (or
// Freeze) lays it out as flat arrays, and a later Add* or Set* panics.
func NewKB(name string) *KB { return kb.New(name) }

// NewGold builds a gold standard from true matches.
func NewGold(matches []Pair) *Gold { return pair.NewGold(matches) }

// Evaluate scores a predicted match set against a gold standard.
func Evaluate(predicted map[Pair]struct{}, gold *Gold) PRF {
	return pair.Evaluate(pair.Set(predicted), gold)
}

// Dataset is a pair of knowledge bases to resolve.
type Dataset struct {
	K1 *KB
	K2 *KB
}

// Options mirrors the paper's tunables; zero values become the paper's
// uniform settings (k=4, τ=0.9, µ=10, label-similarity threshold 0.3).
type Options struct {
	// K bounds partial-order pruning to ~k counterpart candidates/entity.
	K int
	// Tau is the precision threshold for propagated matches; it must lie
	// in (0, 1] (0 selects the default 0.9), anything else is rejected by
	// Resolve / NewPipeline with a descriptive error.
	Tau float64
	// Mu is the number of questions per human-machine loop.
	Mu int
	// LabelSimThreshold prunes candidate pairs below this label Jaccard.
	LabelSimThreshold float64
	// Budget caps the number of crowd questions (0 = unlimited).
	Budget int
	// MaxLoops caps human-machine loops (0 = unlimited).
	MaxLoops int
	// Strategy selects questions: "greedy" (default, Algorithm 3),
	// "maxinf" or "maxpr".
	Strategy string
	// DisableIsolatedClassifier turns off the §VII-B random forest.
	DisableIsolatedClassifier bool
	// Seed drives the pipeline's randomized components.
	Seed int64
	// Shards splits the candidate-pair graph into independent shards of
	// relationally connected components whose propagation, selection and
	// answer application run concurrently under one global budget/µ-batch
	// scheduler. Only pairs with a relational edge are sharded; the rest
	// can exchange no evidence and are kept out of every shard. The
	// resolved matches and non-matches are identical at every shard count.
	// 0 (the default) shards automatically from the number of pairs with
	// an edge — one shard below a few thousand; n caps the count at n, so 1
	// keeps them all in one shard; negative values are rejected.
	Shards int
	// Runner places the session's shard engines: nil (the default) keeps
	// them in process; internal/cluster's coordinator vends factories that
	// place them on worker processes with crash failover. Runtime-only —
	// it never serializes (the server re-injects it per session) — and a
	// conforming runner is observably identical to the in-process one, so
	// results are unaffected.
	Runner RunnerFactory
	// Deduce enables answer deduction: batches are reordered so answers
	// close as many open batch-mates as possible, and a question an
	// earlier answer already resolved (by propagation, or because a
	// matched entity excludes its competitors under the 1:1 constraint)
	// is deduced for free instead of being posted to the crowd. Results
	// are byte-identical to a Deduce-on synchronous oracle run regardless
	// of sharding, delivery order or clustering; Result.Deduced counts the
	// crowd questions saved.
	Deduce bool
}

// RunnerFactory builds the shard-engine runner a session's loop drives;
// see core.ShardRunner. Constructed by internal/cluster — not by API
// consumers.
type RunnerFactory = core.RunnerFactory

// Asker abstracts a crowdsourcing platform.
type Asker = core.Asker

// CrowdConfig configures the simulated crowd (see crowd.Config).
type CrowdConfig struct {
	NumWorkers         int
	WorkersPerQuestion int
	// ErrorRate > 0 gives every worker quality 1−ErrorRate; otherwise
	// worker quality is drawn from [QualityLow, QualityHigh].
	ErrorRate               float64
	QualityLow, QualityHigh float64
	Seed                    int64
}

// NewSimulatedCrowd builds a simulated crowdsourcing platform answering
// from the given truth oracle.
func NewSimulatedCrowd(oracle func(Pair) bool, cfg CrowdConfig) Asker {
	return crowd.NewPlatform(oracle, crowd.Config{
		NumWorkers:         cfg.NumWorkers,
		WorkersPerQuestion: cfg.WorkersPerQuestion,
		ErrorRate:          cfg.ErrorRate,
		QualityLow:         cfg.QualityLow,
		QualityHigh:        cfg.QualityHigh,
		Seed:               cfg.Seed,
	})
}

// NewOracleCrowd builds a perfect single-worker platform (ground-truth
// labels), matching the paper's internal-evaluation setup.
func NewOracleCrowd(oracle func(Pair) bool) Asker {
	return core.NewOracleAsker(oracle)
}

// Result is the outcome of a Resolve run.
type Result struct {
	// Matches is the final match set.
	Matches map[Pair]struct{}
	// Confirmed, Propagated and IsolatedPredicted split Matches by origin:
	// worker-labeled, graph-inferred, and classifier-predicted.
	Confirmed         map[Pair]struct{}
	Propagated        map[Pair]struct{}
	IsolatedPredicted map[Pair]struct{}
	// NonMatches are pairs resolved negative by workers (or by the 1:1
	// entity constraint when a competitor was confirmed).
	NonMatches map[Pair]struct{}
	// Questions is the number of distinct questions asked.
	Questions int
	// Deduced is the number of selected questions answered by deduction
	// instead of the crowd (always 0 unless Options.Deduce).
	Deduced int
	// Loops is the number of human-machine loops executed.
	Loops int
}

// ErrNilInput is returned when a KB or the asker is missing.
var ErrNilInput = errors.New("remp: nil knowledge base or asker")

// configFromOptions maps the public Options onto the pipeline Config and
// validates them. Zero values keep the paper's defaults; explicitly
// invalid values — negative K, Mu, Budget or MaxLoops, an out-of-range Tau
// or LabelSimThreshold — are rejected with a descriptive error instead of
// being silently ignored.
func configFromOptions(opts Options) (core.Config, error) {
	cfg := core.DefaultConfig()
	if opts.K != 0 {
		cfg.K = opts.K
	}
	if opts.Tau != 0 {
		cfg.Tau = opts.Tau
	}
	if opts.Mu != 0 {
		cfg.Mu = opts.Mu
	}
	if opts.LabelSimThreshold != 0 {
		cfg.LabelSimThreshold = opts.LabelSimThreshold
	}
	cfg.Budget = opts.Budget
	cfg.MaxLoops = opts.MaxLoops
	cfg.ClassifyIsolated = !opts.DisableIsolatedClassifier
	cfg.Seed = opts.Seed
	cfg.Shards = opts.Shards
	cfg.Runner = opts.Runner
	cfg.Deduce = opts.Deduce
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("remp: invalid options: %w", err)
	}
	if opts.Strategy != "" { // the default is already Greedy
		s, err := selection.ByName(opts.Strategy)
		if err != nil {
			return core.Config{}, fmt.Errorf("remp: %w", err)
		}
		cfg.Strategy = s
	}
	return cfg, nil
}

// PreparePipeline validates the inputs and returns the prepared core
// pipeline without starting a loop. It exists for callers that measure or
// share the pipeline itself (the repository benchmark); ordinary API
// consumers want NewPipeline or Resolve instead.
func PreparePipeline(ds Dataset, opts Options) (*core.Prepared, error) {
	return PreparePipelineWith(ds, opts, nil, nil)
}

// PreparePipelineWith is PreparePipeline for callers that run many
// sessions over their pipelines, such as the HTTP server: sched is the
// shard-work scheduler the pipeline draws on (a session.Manager's shared
// pool, so concurrent sessions cannot oversubscribe the machine), and o
// instruments it with loop-stage timings and engine counters. A nil sched
// keeps the process-wide default, and a nil o leaves the pipeline
// uninstrumented.
func PreparePipelineWith(ds Dataset, opts Options, sched *core.Scheduler, o *obs.Pipeline) (*core.Prepared, error) {
	if ds.K1 == nil || ds.K2 == nil {
		return nil, ErrNilInput
	}
	cfg, err := configFromOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg.Sched = sched
	cfg.Obs = o
	return core.Prepare(ds.K1, ds.K2, cfg), nil
}

// Resolve runs the full Remp pipeline on the dataset against the asker:
// NewPipeline followed by Pipeline.Run. Each published batch is asked in
// selection order, which is exactly the paper's blocking human–machine
// loop; with Options.Deduce, a question an earlier answer already
// resolved never reaches the asker.
func Resolve(ds Dataset, asker Asker, opts Options) (*Result, error) {
	if asker == nil {
		return nil, ErrNilInput
	}
	p, err := NewPipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(asker)
}

// Pipeline exposes the prepared pipeline for step-by-step use: stage-1
// artifacts are computed by NewPipeline; Run executes the human–machine
// loop. A Pipeline is read-only once built and safe for concurrent use.
type Pipeline struct {
	prepared *core.Prepared
}

// NewPipeline runs ER graph construction (stage 1) and propagation
// modeling (stage 2), returning a pipeline ready to ask questions.
func NewPipeline(ds Dataset, opts Options) (*Pipeline, error) {
	p, err := PreparePipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	return &Pipeline{prepared: p}, nil
}

// Run executes the human–machine loop. Each call is a loop of its own
// over the shared pipeline: repeated and concurrent Runs return what a
// newly built Pipeline would. An error means the loop's shard runner
// failed (Options.Runner); the in-process default never does.
func (p *Pipeline) Run(asker Asker) (*Result, error) {
	if asker == nil {
		return nil, ErrNilInput
	}
	res, err := p.prepared.NewLoop().Run(asker)
	if err != nil {
		return nil, err
	}
	return fromCoreResult(res), nil
}

// CandidatePairs returns the retained entity pairs (the ER graph's
// vertices) after blocking and partial-order pruning.
func (p *Pipeline) CandidatePairs() []Pair {
	return append([]Pair(nil), p.prepared.Retained...)
}

// GraphStats reports the ER graph's size.
func (p *Pipeline) GraphStats() (vertices, edges int) {
	return p.prepared.Graph.NumVertices(), p.prepared.Graph.NumEdges()
}

// PropagateFromSeeds runs propagation-only resolution from known seed
// matches (no crowdsourcing), as in the paper's Table VI.
func (p *Pipeline) PropagateFromSeeds(seeds []Pair) map[Pair]struct{} {
	return p.prepared.PropagateFromSeeds(seeds)
}
