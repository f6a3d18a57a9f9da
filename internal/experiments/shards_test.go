package experiments

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
)

// TestShardedEquivalenceOnBuiltinDatasets is the acceptance gate for the
// sharded pipeline: on every built-in dataset suite, a sharded Resolve
// must produce exactly the matches and non-matches of the unsharded run —
// the cross-shard monotonicity check of internal/eval — and therefore the
// same precision/recall/F1.
func TestShardedEquivalenceOnBuiltinDatasets(t *testing.T) {
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			ds, err := datasets.ByName(name, DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			run := func(shards int) *core.Result {
				cfg := core.DefaultConfig()
				cfg.Shards = shards
				p := core.Prepare(ds.K1, ds.K2, cfg)
				return p.Run(core.NewOracleAsker(ds.Gold.IsMatch))
			}
			ref := run(1)
			refOut := eval.Outcome{Matches: ref.Matches, NonMatches: ref.NonMatches}
			for _, shards := range []int{4} {
				res := run(shards)
				if err := eval.ShardDivergence(refOut, eval.Outcome{Matches: res.Matches, NonMatches: res.NonMatches}); err != nil {
					t.Errorf("%d shards: %v", shards, err)
				}
			}
		})
	}
}

// TestShardScalabilityReport sanity-checks the shards experiment on a
// reduced clustered graph: every point must be equivalent and the report
// shape complete, so the verdict remp-bench exits on holds — and fails
// once a point is forced to diverge.
func TestShardScalabilityReport(t *testing.T) {
	report := shardScalability(io.Discard, DefaultSeed, 24, 16)
	if len(report.Points) != 4 {
		t.Fatalf("report has %d points, want 4", len(report.Points))
	}
	if report.Vertices == 0 || report.Edges == 0 || report.Components == 0 {
		t.Errorf("report missing graph stats: %+v", report)
	}
	for _, pt := range report.Points {
		if !pt.Equivalent {
			t.Errorf("shard count %d diverged from the monolithic run", pt.Shards)
		}
		if pt.LoopNS <= 0 || pt.Questions <= 0 {
			t.Errorf("degenerate point: %+v", pt)
		}
	}
	if err := report.Check(); err != nil {
		t.Errorf("verdict on an equivalent report: %v", err)
	}
	report.Points[2].Equivalent = false
	if report.Check() == nil {
		t.Error("verdict held with a diverged point")
	}
}

// TestVerdictsFailWhenForcedFalse pins the two other verdicts remp-bench
// exits non-zero on: a pre-pipeline that diverged or — only when the naive
// cross-check ran — is under the speedup floor, and a deduction report
// with a diverged point or the savings floor reached on fewer than two
// datasets (scored on each dataset's minimum across shard counts).
func TestVerdictsFailWhenForcedFalse(t *testing.T) {
	prepare := []struct {
		name string
		rep  PrepareReport
		ok   bool
	}{
		{"indexed only", PrepareReport{Equivalent: true}, true},
		{"cross-checked and fast", PrepareReport{Equivalent: true, NaiveNS: 60, IndexedNS: 10, Speedup: 6}, true},
		{"diverged", PrepareReport{Equivalent: false, NaiveNS: 60, IndexedNS: 10, Speedup: 6}, false},
		{"slow", PrepareReport{Equivalent: true, NaiveNS: 40, IndexedNS: 10, Speedup: 4}, false},
	}
	for _, tc := range prepare {
		if err := tc.rep.Check(); (err == nil) != tc.ok {
			t.Errorf("prepare %s: verdict %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	pt := func(ds string, shards int, savings float64, eq bool) DeducePoint {
		return DeducePoint{Dataset: ds, Shards: shards, Savings: savings, Equivalent: eq}
	}
	deduction := []struct {
		name   string
		points []DeducePoint
		ok     bool
	}{
		{"two datasets at the floor", []DeducePoint{pt("a", 1, 0.3, true), pt("a", 4, 0.1, true), pt("b", 1, 0.2, true), pt("c", 1, 0, true)}, true},
		{"a diverged point", []DeducePoint{pt("a", 1, 0.3, true), pt("a", 4, 0.1, false), pt("b", 1, 0.2, true)}, false},
		{"one dataset's minimum under the floor", []DeducePoint{pt("a", 1, 0.3, true), pt("a", 4, 0.09, true), pt("b", 1, 0.2, true)}, false},
		{"no points", nil, false},
	}
	for _, tc := range deduction {
		if err := (&DeductionReport{Points: tc.points}).Check(); (err == nil) != tc.ok {
			t.Errorf("deduction %s: verdict %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
