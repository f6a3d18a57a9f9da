package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/pair"
)

// DeducePoint is one row of the deduction experiment: one built-in
// dataset resolved at one shard count with answer deduction on,
// compared against the Deduce-off reference run.
type DeducePoint struct {
	Dataset string `json:"dataset"`
	Shards  int    `json:"shards"`
	// BaseQuestions is the crowd cost of the Deduce-off reference.
	BaseQuestions int `json:"base_questions"`
	// Questions and Deduced are the Deduce-on run's crowd cost and the
	// selected questions deduction answered for free.
	Questions int `json:"questions"`
	Deduced   int `json:"deduced"`
	// Savings is the crowd-questions-saved ratio vs the reference.
	Savings float64 `json:"savings"`
	F1      float64 `json:"f1"`
	// Equivalent means the Deduce-on result diverged from the
	// reference in no resolved pair (eval.ShardDivergence clean) and
	// respects the 1:1 constraint.
	Equivalent bool `json:"equivalent"`
}

// DeductionReport is the machine-readable result of the deduction
// experiment (remp-bench -experiment deduction -json).
type DeductionReport struct {
	Points []DeducePoint `json:"points"`
}

// minDeduceSavings is the crowd-questions-saved ratio deduction must reach
// on at least two datasets.
const minDeduceSavings = 0.10

// MinSavings returns the smallest savings across shard counts for a
// dataset (the conservative number Check scores).
func (r *DeductionReport) MinSavings(dataset string) (float64, bool) {
	min, found := 0.0, false
	for _, pt := range r.Points {
		if pt.Dataset != dataset {
			continue
		}
		if !found || pt.Savings < min {
			min, found = pt.Savings, true
		}
	}
	return min, found
}

// Check is the experiment's verdict, nil when it holds: every point must
// be byte-equivalent to its Deduce-off reference (deduction may never
// change a resolved pair), and the savings floor must hold on at least two
// datasets — measured by each dataset's minimum savings across shard
// counts, with a small epsilon so float rounding cannot flip the verdict.
func (r *DeductionReport) Check() error {
	const epsilon = 1e-9
	var errs []error
	seen := make(map[string]bool)
	atFloor := 0
	for _, pt := range r.Points {
		if !pt.Equivalent {
			errs = append(errs, fmt.Errorf("deduction on %s @ %d shard(s) diverged from the Deduce-off reference", pt.Dataset, pt.Shards))
		}
		if seen[pt.Dataset] {
			continue
		}
		seen[pt.Dataset] = true
		if min, _ := r.MinSavings(pt.Dataset); min >= minDeduceSavings-epsilon {
			atFloor++
		}
	}
	if atFloor < 2 {
		errs = append(errs, fmt.Errorf("deduction reached the %.0f%% savings floor on %d dataset(s); at least 2 required", 100*minDeduceSavings, atFloor))
	}
	return errors.Join(errs...)
}

// Deduction measures answer deduction on every built-in dataset: each
// is resolved against a ground-truth oracle once with Deduce off (the
// crowd-cost reference) and then with Deduce on at 1 and 4 shards.
// Deduction must save crowd questions without changing a single
// resolved pair — every Deduce-on outcome is checked against the
// reference with the same divergence test the shard experiments use,
// plus the 1:1 constraint.
func Deduction(w io.Writer, seed int64) *DeductionReport {
	header(w, "Answer deduction: crowd questions saved per dataset (oracle workers)")
	report := &DeductionReport{}
	for _, name := range datasets.Names() {
		ds, err := datasets.ByName(name, seed)
		if err != nil {
			panic(err)
		}

		baseCfg := core.DefaultConfig()
		baseCfg.Seed = seed
		baseCfg.Shards = 1
		base := core.Prepare(ds.K1, ds.K2, baseCfg).Run(core.NewOracleAsker(ds.Gold.IsMatch))
		ref := eval.Outcome{Matches: base.Matches, NonMatches: base.NonMatches}

		for _, shards := range []int{1, 4} {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Shards = shards
			cfg.Deduce = true
			asker := core.NewOracleAsker(ds.Gold.IsMatch)
			res := core.Prepare(ds.K1, ds.K2, cfg).Run(asker)

			equivalent := true
			if err := eval.ShardDivergence(ref, eval.Outcome{Matches: res.Matches, NonMatches: res.NonMatches}); err != nil {
				equivalent = false
				fmt.Fprintf(w, "  !! %s @ %d shard(s): deduction diverged: %v\n", name, shards, err)
			}
			if err := eval.OneToOne(res.Matches); err != nil {
				equivalent = false
				fmt.Fprintf(w, "  !! %s @ %d shard(s): 1:1 violation: %v\n", name, shards, err)
			}
			savings := 0.0
			if base.Questions > 0 {
				savings = 1 - float64(res.Questions)/float64(base.Questions)
			}
			prf := pair.Evaluate(res.Matches, ds.Gold)
			fmt.Fprintf(w, "%-8s %d shard(s): questions %4d → %4d  (deduced %4d, saved %s)  F1=%.3f  equivalent=%v\n",
				name, shards, base.Questions, res.Questions, res.Deduced, pct(savings), prf.F1, equivalent)
			report.Points = append(report.Points, DeducePoint{
				Dataset: name, Shards: shards,
				BaseQuestions: base.Questions, Questions: res.Questions, Deduced: res.Deduced,
				Savings: savings, F1: prf.F1, Equivalent: equivalent,
			})
		}
	}
	return report
}
