package experiments

import (
	"fmt"
	"io"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/pair"
	"repro/internal/simvec"
)

// AttrMatchResult is one row of Table IV.
type AttrMatchResult struct {
	Dataset                       string
	RefMatches                    int
	WithOneToOne, WithoutOneToOne pair.PRF
}

// Table4 reproduces "Effectiveness of attribute matching": precision,
// recall and F1 of attribute matching with and without the 1:1 constraint
// on I-Y and D-Y (the datasets with attribute gold standards).
func Table4(w io.Writer, seed int64) []AttrMatchResult {
	header(w, "Table IV: Effectiveness of attribute matching")
	fmt.Fprintf(w, "%-6s %5s | %-26s | %-26s\n", "", "#Ref", "Remp (1:1)", "Remp w/o 1:1 matching")
	var out []AttrMatchResult
	for _, name := range []string{"i-y", "d-y"} {
		ds, err := datasets.ByName(name, seed)
		if err != nil {
			panic(err)
		}
		res := attrMatchOn(ds)
		fmt.Fprintf(w, "%-6s %5d | P=%s R=%s F1=%s | P=%s R=%s F1=%s\n",
			ds.Name, res.RefMatches,
			pct(res.WithOneToOne.Precision), pct(res.WithOneToOne.Recall), pct(res.WithOneToOne.F1),
			pct(res.WithoutOneToOne.Precision), pct(res.WithoutOneToOne.Recall), pct(res.WithoutOneToOne.F1))
		out = append(out, res)
	}
	return out
}

func attrMatchOn(ds *datasets.Dataset) AttrMatchResult {
	blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
	gold := map[[2]string]bool{}
	for _, r := range ds.AttrGold {
		gold[[2]string{r.A1, r.A2}] = true
	}
	score := func(matches []attrmatch.Match) pair.PRF {
		tp := 0
		for _, m := range matches {
			if gold[[2]string{ds.K1.AttrName(m.A1), ds.K2.AttrName(m.A2)}] {
				tp++
			}
		}
		return pair.FromCounts(tp, len(matches)-tp, len(ds.AttrGold)-tp)
	}
	opts := attrmatch.DefaultOptions()
	with := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, opts)
	opts.OneToOne = false
	without := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, opts)
	return AttrMatchResult{
		Dataset:         ds.Name,
		RefMatches:      len(ds.AttrGold),
		WithOneToOne:    score(with),
		WithoutOneToOne: score(without),
	}
}

// PruningResult is one row of Table V.
type PruningResult struct {
	Dataset        string
	CandidatePairs int
	CandidatePC    float64
	RetainedPairs  int
	ReductionRatio float64
	RetainedPC     float64
	Edges          int
	MonotoneError  float64
}

// Table5 reproduces "Effectiveness of partial order based pruning" with
// k = 4: candidate/retained pair counts, pair completeness, reduction
// ratio, ER-graph edge count and the optimal-monotone-classifier error.
func Table5(w io.Writer, seed int64) []PruningResult {
	header(w, "Table V: Effectiveness of partial-order-based pruning (k=4)")
	fmt.Fprintf(w, "%-6s | %9s %7s | %9s %7s %7s | %8s %9s\n",
		"", "#Cand", "PC", "#Retained", "RR", "PC", "#Edges", "ErrRate")
	var out []PruningResult
	for _, ds := range datasets.All(seed) {
		res := pruningOn(ds, 4)
		fmt.Fprintf(w, "%-6s | %9d %7s | %9d %7s %7s | %8d %9s\n",
			ds.Name, res.CandidatePairs, pct(res.CandidatePC),
			res.RetainedPairs, pct(res.ReductionRatio), pct(res.RetainedPC),
			res.Edges, pct(res.MonotoneError))
		out = append(out, res)
	}
	return out
}

func pruningOn(ds *datasets.Dataset, k int) PruningResult {
	cfg := core.DefaultConfig()
	cfg.K = k
	p := core.Prepare(ds.K1, ds.K2, cfg)
	blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: cfg.LabelSimThreshold})
	candPairs := make([]pair.Pair, len(blk.Candidates))
	for i, c := range blk.Candidates {
		candPairs[i] = c.Pair
	}
	vectors := make([]simvec.Vector, len(p.Retained))
	for i := range p.Retained {
		vectors[i] = p.Vector(i)
	}
	return PruningResult{
		Dataset:        ds.Name,
		CandidatePairs: len(candPairs),
		CandidatePC:    pair.PairCompleteness(pair.NewSet(candPairs...), ds.Gold),
		RetainedPairs:  len(p.Retained),
		ReductionRatio: pair.ReductionRatio(len(candPairs), len(p.Retained)),
		RetainedPC:     pair.PairCompleteness(pair.NewSet(p.Retained...), ds.Gold),
		Edges:          p.Graph.NumEdges(),
		MonotoneError:  eval.OptimalMonotoneError(p.Retained, vectors, ds.Gold),
	}
}

// PCPoint is one point of Figure 4.
type PCPoint struct {
	Dataset string
	K       int
	PC      float64
}

// Figure4 reproduces "Pair completeness w.r.t. k-nearest neighbors":
// retained-match pair completeness as k sweeps 1..13.
func Figure4(w io.Writer, seed int64) []PCPoint {
	header(w, "Figure 4: Pair completeness vs k-nearest neighbors")
	ks := []int{1, 2, 4, 7, 10, 13}
	fmt.Fprintf(w, "%-6s |", "")
	for _, k := range ks {
		fmt.Fprintf(w, " k=%-5d", k)
	}
	fmt.Fprintln(w)
	var out []PCPoint
	for _, ds := range datasets.All(seed) {
		blk := blocking.Generate(ds.K1, ds.K2, blocking.Options{Threshold: 0.3})
		am := attrmatch.FindMatches(ds.K1, ds.K2, blk.Initial, attrmatch.DefaultOptions())
		builder := simvec.NewBuilder(ds.K1, ds.K2, am, 0.9)
		candPairs := make([]pair.Pair, len(blk.Candidates))
		for i, c := range blk.Candidates {
			candPairs[i] = c.Pair
		}
		pruner := simvec.NewPruner(candPairs, builder.All(candPairs))
		fmt.Fprintf(w, "%-6s |", ds.Name)
		for _, k := range ks {
			kept := pruner.Prune(candPairs, k)
			pc := pair.PairCompleteness(pair.NewSet(kept...), ds.Gold)
			fmt.Fprintf(w, " %-7s", pct(pc))
			out = append(out, PCPoint{Dataset: ds.Name, K: k, PC: pc})
		}
		fmt.Fprintln(w)
	}
	return out
}
