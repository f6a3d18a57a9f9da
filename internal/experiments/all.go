package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment, writing its table/series to w.
type Runner func(w io.Writer, seed int64)

// Registry maps experiment IDs (as accepted by cmd/remp-bench) to their
// drivers, in paper order.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table3":    func(w io.Writer, s int64) { Table3(w, s) },
		"figure3":   func(w io.Writer, s int64) { Figure3(w, s) },
		"table4":    func(w io.Writer, s int64) { Table4(w, s) },
		"table5":    func(w io.Writer, s int64) { Table5(w, s) },
		"figure4":   func(w io.Writer, s int64) { Figure4(w, s) },
		"table6":    func(w io.Writer, s int64) { Table6(w, s) },
		"figure5":   func(w io.Writer, s int64) { Figure5(w, s) },
		"table7":    func(w io.Writer, s int64) { Table7(w, s) },
		"table8":    func(w io.Writer, s int64) { Table8(w, s) },
		"figure6":   func(w io.Writer, s int64) { Figure6(w, s) },
		"shards":    func(w io.Writer, s int64) { ShardScalability(w, s) },
		"prepare":   func(w io.Writer, s int64) { PreparePipeline(w, s, 20_000, true) },
		"deduction": func(w io.Writer, s int64) { Deduction(w, s) },
	}
}

// Order lists experiment IDs in the paper's presentation order, followed
// by the reproduction's own scaling experiments.
func Order() []string {
	return []string{
		"table3", "figure3", "table4", "table5", "figure4",
		"table6", "figure5", "table7", "table8", "figure6",
		"shards", "prepare", "deduction",
	}
}

// All runs every experiment in order.
func All(w io.Writer, seed int64) {
	reg := Registry()
	for _, id := range Order() {
		reg[id](w, seed)
	}
}

// Names returns the sorted experiment IDs (for usage messages).
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns a one-line description per experiment ID.
func Describe(id string) string {
	desc := map[string]string{
		"table3":    "Table III — F1 and #questions with (simulated) real workers",
		"figure3":   "Figure 3 — F1 and #questions vs worker error rate",
		"table4":    "Table IV — attribute matching effectiveness (1:1 ablation)",
		"table5":    "Table V — partial-order pruning effectiveness (k=4)",
		"figure4":   "Figure 4 — pair completeness vs k",
		"table6":    "Table VI — propagation from seed matches vs PARIS/SiGMa",
		"figure5":   "Figure 5 — question-selection benefit vs MaxInf/MaxPr",
		"table7":    "Table VII — batch size µ sweep",
		"table8":    "Table VIII — isolated-pair classifier",
		"figure6":   "Figure 6 — runtime scalability of Algorithms 1–3",
		"shards":    "Shard speedup — sharded loop runtime and equivalence on the clustered synthetic graph",
		"prepare":   "Pre-pipeline — indexed blocking + batched similarity vs the naive path on the scale dataset",
		"deduction": "Answer deduction — crowd questions saved by skipping already-resolved ones, divergence-checked per dataset",
	}
	if d, ok := desc[id]; ok {
		return d
	}
	return fmt.Sprintf("unknown experiment %q", id)
}
