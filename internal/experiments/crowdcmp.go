package experiments

import (
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/baselines/corleone"
	"repro/internal/baselines/hike"
	"repro/internal/baselines/power"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
)

// MethodResult is one (dataset, method) cell of Table III / Figure 3.
type MethodResult struct {
	Dataset   string
	Method    string
	F1        float64
	Precision float64
	Recall    float64
	Questions int
}

// crowdMethods returns the Table III competitor set.
func crowdMethods() []baselines.Method {
	return []baselines.Method{hike.Method{}, power.Method{}, corleone.Method{}}
}

// runRemp executes Remp's loop over the prepared pipeline against the
// given platform config.
func runRemp(ds *datasets.Dataset, p *core.Prepared, cc crowd.Config) MethodResult {
	res := p.Run(newPlatform(ds, cc))
	prf := pair.Evaluate(res.Matches, ds.Gold)
	return MethodResult{
		Dataset: ds.Name, Method: "Remp",
		F1: prf.F1, Precision: prf.Precision, Recall: prf.Recall,
		Questions: res.Questions,
	}
}

// runBaseline executes one competitor over the same prepared pipeline.
func runBaseline(ds *datasets.Dataset, p *core.Prepared, m baselines.Method, cc crowd.Config, seed int64) MethodResult {
	out := m.Run(baselines.FromPrepared(p, newPlatform(ds, cc), nil, seed))
	prf := pair.Evaluate(out.Matches, ds.Gold)
	return MethodResult{
		Dataset: ds.Name, Method: m.Name(),
		F1: prf.F1, Precision: prf.Precision, Recall: prf.Recall,
		Questions: out.Questions,
	}
}

// methodRow runs Remp and every competitor on one dataset — all over one
// prepared pipeline, which none of them modifies — and prints the row.
func methodRow(w io.Writer, indent string, ds *datasets.Dataset, p *core.Prepared, cc crowd.Config, seed int64) []MethodResult {
	row := []MethodResult{runRemp(ds, p, cc)}
	for _, m := range crowdMethods() {
		row = append(row, runBaseline(ds, p, m, cc, seed))
	}
	fmt.Fprintf(w, "%s%-6s | %7s %7d | %7s %7d | %7s %7d | %7s %7d\n",
		indent, ds.Name,
		pct(row[0].F1), row[0].Questions,
		pct(row[1].F1), row[1].Questions,
		pct(row[2].F1), row[2].Questions,
		pct(row[3].F1), row[3].Questions)
	return row
}

// Table3 reproduces "F1-score and number of questions with real workers":
// Remp vs HIKE, POWER and Corleone on the four datasets under the
// simulated MTurk-quality worker pool.
func Table3(w io.Writer, seed int64) []MethodResult {
	header(w, "Table III: F1-score and number of questions with (simulated) real workers")
	fmt.Fprintf(w, "%-6s | %-8s %6s | %-8s %6s | %-8s %6s | %-8s %6s\n",
		"", "Remp F1", "#Q", "HIKE F1", "#Q", "POWER", "#Q", "Corleone", "#Q")
	var out []MethodResult
	for _, ds := range datasets.All(seed) {
		out = append(out, methodRow(w, "", ds, prepare(ds, seed), realWorkerConfig(seed), seed)...)
	}
	return out
}

// Figure3 reproduces "F1-score and number of questions w.r.t. simulated
// workers of varying error rates" (0.05, 0.15, 0.25).
func Figure3(w io.Writer, seed int64) []MethodResult {
	header(w, "Figure 3: F1 and #questions vs simulated worker error rate")
	dss := datasets.All(seed)
	preps := make([]*core.Prepared, len(dss))
	for i, ds := range dss {
		preps[i] = prepare(ds, seed)
	}
	var out []MethodResult
	for _, rate := range []float64{0.05, 0.15, 0.25} {
		fmt.Fprintf(w, "error rate %.2f:\n", rate)
		fmt.Fprintf(w, "  %-6s | %-8s %6s | %-8s %6s | %-8s %6s | %-8s %6s\n",
			"", "Remp F1", "#Q", "HIKE F1", "#Q", "POWER", "#Q", "Corleone", "#Q")
		for i, ds := range dss {
			out = append(out, methodRow(w, "  ", ds, preps[i], errorRateConfig(rate, seed), seed)...)
		}
	}
	return out
}
