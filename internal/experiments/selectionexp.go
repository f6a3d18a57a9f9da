package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pair"
	"repro/internal/selection"
)

// CurvePoint is one point of a Figure 5 F1-vs-#questions curve.
type CurvePoint struct {
	Dataset   string
	Strategy  string
	Questions int
	F1        float64
}

// Figure5 reproduces "F1-score of Remp, MaxInf and MaxPr w.r.t. varying
// numbers of questions": µ = 1, ground-truth labels, F1 recorded at
// power-of-two question counts.
func Figure5(w io.Writer, seed int64) []CurvePoint {
	header(w, "Figure 5: F1 vs #questions for Remp / MaxInf / MaxPr (µ=1, oracle labels)")
	marks := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	var out []CurvePoint
	for _, ds := range datasets.All(seed) {
		for _, st := range []struct {
			name string
			s    selection.Strategy
		}{
			{"Remp", selection.Greedy{}},
			{"MaxInf", selection.MaxInf{}},
			{"MaxPr", selection.MaxPr{}},
		} {
			points := map[int]float64{}
			cfg := core.DefaultConfig()
			cfg.Mu = 1
			cfg.Strategy = st.s
			cfg.ClassifyIsolated = false
			cfg.Seed = seed
			// Every strategy runs to the same question budget so the
			// curves are comparable point-for-point, as in the paper.
			cfg.Budget = marks[len(marks)-1]
			cfg.ExhaustBudget = true
			// At µ = 1 every Deliver applies one answer, so the result
			// read after it is the curve's point at that question count.
			l := core.Prepare(ds.K1, ds.K2, cfg).NewLoop()
			asker := core.NewOracleAsker(ds.Gold.IsMatch)
			for !l.Done() {
				q := l.Batch()[0]
				if err := l.Deliver(q, asker.Ask(q)); err != nil {
					panic(err)
				}
				if res := l.Result(); slices.Contains(marks, res.Questions) {
					points[res.Questions] = pair.Evaluate(res.Matches, ds.Gold).F1
				}
			}
			res := l.Result()
			final := pair.Evaluate(res.Matches, ds.Gold).F1
			fmt.Fprintf(w, "%-6s %-7s (stopped at %d questions, final F1 %s):", ds.Name, st.name, res.Questions, pct(final))
			last := 0.0
			for _, mark := range marks {
				// Marks beyond the method's stopping point take its final F1
				// (the curve flattens once it stops asking).
				if f1, ok := points[mark]; ok {
					last = f1
				} else if mark >= res.Questions {
					last = final
				}
				fmt.Fprintf(w, " %d:%s", mark, pct(last))
				out = append(out, CurvePoint{Dataset: ds.Name, Strategy: st.name, Questions: mark, F1: last})
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

// BatchResult is one (dataset, µ) cell of Table VII.
type BatchResult struct {
	Dataset   string
	Mu        int
	F1        float64
	Questions int
	Loops     int
}

// Table7 reproduces "F1-score and number of questions with different
// question number thresholds per round" (µ ∈ {1, 5, 10, 20}, ground-truth
// labels).
func Table7(w io.Writer, seed int64) []BatchResult {
	header(w, "Table VII: F1 / #questions / #loops vs µ (oracle labels)")
	mus := []int{1, 5, 10, 20}
	fmt.Fprintf(w, "%-6s |", "")
	for _, mu := range mus {
		fmt.Fprintf(w, "  µ=%-2d: F1 #Q #L     |", mu)
	}
	fmt.Fprintln(w)
	var out []BatchResult
	for _, ds := range datasets.All(seed) {
		fmt.Fprintf(w, "%-6s |", ds.Name)
		for _, mu := range mus {
			cfg := core.DefaultConfig()
			cfg.Mu = mu
			cfg.Seed = seed
			p := core.Prepare(ds.K1, ds.K2, cfg)
			res := p.Run(core.NewOracleAsker(ds.Gold.IsMatch))
			f1 := pair.Evaluate(res.Matches, ds.Gold).F1
			fmt.Fprintf(w, " %6s %4d %3d |", pct(f1), res.Questions, res.Loops)
			out = append(out, BatchResult{Dataset: ds.Name, Mu: mu, F1: f1, Questions: res.Questions, Loops: res.Loops})
		}
		fmt.Fprintln(w)
	}
	return out
}
