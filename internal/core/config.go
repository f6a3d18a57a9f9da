package core

import (
	"fmt"
	"math"

	"repro/internal/crowd"
	"repro/internal/obs"
	"repro/internal/pair"
	"repro/internal/selection"
)

// Config carries every tunable of the pipeline. The zero value is replaced
// by the paper's uniform settings: k = 4, τ = 0.9, µ = 10, label-similarity
// threshold 0.3, simL literal threshold 0.9.
type Config struct {
	// K is the k-nearest-neighbor bound of partial-order pruning.
	K int
	// Tau is the precision threshold τ for inferred matches.
	Tau float64
	// Mu is the number of questions per human-machine loop.
	Mu int
	// LabelSimThreshold prunes candidate pairs below this label Jaccard.
	LabelSimThreshold float64
	// LiteralThreshold is simL's internal literal threshold.
	LiteralThreshold float64
	// Budget caps the number of questions; 0 means unlimited.
	Budget int
	// MaxLoops caps human-machine loops; 0 means unlimited.
	MaxLoops int
	// Thresholds are the truth-inference accept/reject posteriors.
	Thresholds crowd.Thresholds
	// Strategy selects questions; nil means the paper's greedy benefit
	// maximization (Algorithm 3).
	Strategy selection.Strategy
	// ClassifyIsolated enables the random-forest fallback of §VII-B.
	ClassifyIsolated bool
	// Seed drives the forest's randomness.
	Seed int64
	// ExhaustBudget keeps the loop polling unresolved pairs by strategy
	// order even after relational propagation is exhausted, until Budget
	// is spent. The paper's Figure 5 runs every selection strategy to the
	// same question budget; Remp's normal stop criterion is restored when
	// this is false (the default).
	ExhaustBudget bool
	// Deduce enables answer deduction (after Wang et al.'s crowdsourced-
	// join transitivity, which under the 1:1 constraint reduces to "an
	// entity matched elsewhere excludes this pair"): each batch is
	// reordered so questions whose answer closes the most open
	// batch-mates come first (ties keep the selection order), and a
	// question an earlier answer already resolved — by propagation or
	// competitor exclusion — is skipped, deduced, instead of spending a
	// crowd question. Deduction is a pure function of the applied-answer
	// prefix, so sharded, asynchronous and clustered runs with Deduce on
	// stay byte-identical to a synchronous Deduce-on oracle run.
	Deduce bool
	// Shards splits the candidate-pair graph's vertices that have an edge
	// into independent shards of connected components (over relational
	// edges) whose propagation, selection and answer application run
	// concurrently under one global budget/µ-batch scheduler; isolated
	// vertices stay with the loop, and the results are identical at every
	// shard count. 0 selects automatically from the number of vertices
	// with an edge (one shard below a few thousand), n caps the count at
	// n, 1 included; negative is rejected by Validate.
	Shards int
	// Runner supplies the ShardRunner a new Loop drives — where the
	// per-shard propagation engines live. Nil selects the in-process
	// runner (NewLocalRunner); internal/cluster supplies a remote runner
	// that places the engines on worker processes. A conforming runner
	// replicates the local runner's observable behavior exactly, so the
	// loop's byte-identity guarantees extend across it.
	Runner RunnerFactory
	// Obs carries the instrumentation hooks threaded through the
	// pipeline: per-stage loop timings (through its injected monotonic
	// clock — core itself never reads the wall clock, preserving
	// determinism) and engine/loop counters. Nil disables
	// instrumentation; every hook is nil-safe and allocation-free.
	Obs *obs.Pipeline
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		K:                 4,
		Tau:               0.9,
		Mu:                10,
		LabelSimThreshold: 0.3,
		LiteralThreshold:  0.9,
		Thresholds:        crowd.DefaultThresholds(),
		Strategy:          selection.Greedy{},
		ClassifyIsolated:  true,
		Seed:              1,
	}
}

// Validate reports whether the configuration is usable, with a
// descriptive error for the first offending field. It is the one boundary
// check: nothing downstream clamps τ or drops a negative K, Mu, Budget,
// MaxLoops or LabelSimThreshold. A zero in any of these fields selects the
// paper's default via fill; an explicitly invalid value is rejected here.
func (c Config) Validate() error {
	if math.IsNaN(c.Tau) || c.Tau < 0 || c.Tau > 1 {
		return fmt.Errorf("core: Tau = %v out of range: the precision threshold τ must lie in (0, 1] (0 selects the default 0.9)", c.Tau)
	}
	if c.K < 0 {
		return fmt.Errorf("core: K = %d is negative: the pruning bound k must be positive (0 selects the default 4)", c.K)
	}
	if c.Mu < 0 {
		return fmt.Errorf("core: Mu = %d is negative: the questions-per-loop µ must be positive (0 selects the default 10)", c.Mu)
	}
	if c.Budget < 0 {
		return fmt.Errorf("core: Budget = %d is negative: the question budget must be positive (0 means unlimited)", c.Budget)
	}
	if c.MaxLoops < 0 {
		return fmt.Errorf("core: MaxLoops = %d is negative: the loop cap must be positive (0 means unlimited)", c.MaxLoops)
	}
	if math.IsNaN(c.LabelSimThreshold) || c.LabelSimThreshold < 0 || c.LabelSimThreshold > 1 {
		return fmt.Errorf("core: LabelSimThreshold = %v out of range: the label-similarity threshold must lie in [0, 1] (0 selects the default 0.3)", c.LabelSimThreshold)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards = %d is negative: the shard count must be positive (0 selects automatic sharding)", c.Shards)
	}
	return nil
}

func (c *Config) fill() {
	if c.K <= 0 {
		c.K = 4
	}
	if c.Tau == 0 {
		c.Tau = 0.9
	}
	if c.Mu <= 0 {
		c.Mu = 10
	}
	if c.LabelSimThreshold <= 0 {
		c.LabelSimThreshold = 0.3
	}
	if c.LiteralThreshold <= 0 {
		c.LiteralThreshold = 0.9
	}
	if c.Thresholds.Accept == 0 && c.Thresholds.Reject == 0 {
		c.Thresholds = crowd.DefaultThresholds()
	}
	if c.Strategy == nil {
		c.Strategy = selection.Greedy{}
	}
}

// Asker abstracts the crowdsourcing platform; *crowd.Platform implements
// it, as does the ground-truth oracle used in Figure 5 / Table VII.
type Asker interface {
	Ask(q pair.Pair) []crowd.Label
	NumQuestions() int
}

// OracleAsker answers every question correctly with a single perfect
// worker — the "ground truth as labels" configuration of the internal
// experiments.
type OracleAsker struct {
	Oracle crowd.Oracle
	asked  map[pair.Pair]bool
}

// NewOracleAsker wraps a gold-standard oracle.
func NewOracleAsker(oracle crowd.Oracle) *OracleAsker {
	return &OracleAsker{Oracle: oracle, asked: map[pair.Pair]bool{}}
}

// Ask implements Asker.
func (o *OracleAsker) Ask(q pair.Pair) []crowd.Label {
	o.asked[q] = true
	return []crowd.Label{{WorkerID: 0, Quality: 0.999, IsMatch: o.Oracle(q)}}
}

// NumQuestions implements Asker.
func (o *OracleAsker) NumQuestions() int { return len(o.asked) }
