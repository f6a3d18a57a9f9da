package experiments

import (
	"fmt"
	"io"
	"slices"
)

// Runner executes one experiment, writing its table/series to w.
type Runner func(w io.Writer, seed int64)

// experiment is one entry of the experiment set: the ID cmd/remp-bench
// accepts, a one-line description and the driver.
type experiment struct {
	id, desc string
	run      Runner
}

// table is the experiment set in the paper's presentation order,
// followed by the reproduction's own scaling experiments. Every exported
// view below reads it.
var table = []experiment{
	{"table3", "Table III — F1 and #questions with (simulated) real workers", func(w io.Writer, s int64) { Table3(w, s) }},
	{"figure3", "Figure 3 — F1 and #questions vs worker error rate", func(w io.Writer, s int64) { Figure3(w, s) }},
	{"table4", "Table IV — attribute matching effectiveness (1:1 ablation)", func(w io.Writer, s int64) { Table4(w, s) }},
	{"table5", "Table V — partial-order pruning effectiveness (k=4)", func(w io.Writer, s int64) { Table5(w, s) }},
	{"figure4", "Figure 4 — pair completeness vs k", func(w io.Writer, s int64) { Figure4(w, s) }},
	{"table6", "Table VI — propagation from seed matches vs PARIS/SiGMa", func(w io.Writer, s int64) { Table6(w, s) }},
	{"figure5", "Figure 5 — question-selection benefit vs MaxInf/MaxPr", func(w io.Writer, s int64) { Figure5(w, s) }},
	{"table7", "Table VII — batch size µ sweep", func(w io.Writer, s int64) { Table7(w, s) }},
	{"table8", "Table VIII — isolated-pair classifier", func(w io.Writer, s int64) { Table8(w, s) }},
	{"figure6", "Figure 6 — runtime scalability of Algorithms 1–3", func(w io.Writer, s int64) { Figure6(w, s) }},
	{"shards", "Shard speedup — sharded loop runtime and equivalence on the clustered synthetic graph",
		func(w io.Writer, s int64) { ShardScalability(w, s) }},
	{"prepare", "Pre-pipeline — indexed blocking + batched similarity vs the naive path on the scale dataset",
		func(w io.Writer, s int64) { PreparePipeline(w, s, 20_000, true) }},
	{"deduction", "Answer deduction — crowd questions saved by skipping already-resolved ones, divergence-checked per dataset",
		func(w io.Writer, s int64) { Deduction(w, s) }},
}

// Registry maps experiment IDs (as accepted by cmd/remp-bench) to their
// drivers.
func Registry() map[string]Runner {
	out := make(map[string]Runner, len(table))
	for _, e := range table {
		out[e.id] = e.run
	}
	return out
}

// Order lists experiment IDs in the paper's presentation order, followed
// by the reproduction's own scaling experiments.
func Order() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.id
	}
	return out
}

// All runs every experiment in order.
func All(w io.Writer, seed int64) {
	for _, e := range table {
		e.run(w, seed)
	}
}

// Names returns the sorted experiment IDs (for usage messages).
func Names() []string {
	out := Order()
	slices.Sort(out)
	return out
}

// Describe returns a one-line description per experiment ID.
func Describe(id string) string {
	for _, e := range table {
		if e.id == id {
			return e.desc
		}
	}
	return fmt.Sprintf("unknown experiment %q", id)
}
