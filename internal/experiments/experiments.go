// Package experiments contains one driver per table and figure in the
// paper's evaluation section (§VIII). Each driver regenerates the
// corresponding artifact on the synthetic dataset suite and prints the
// same rows/series the paper reports; cmd/remp-bench and the root
// bench_test.go both dispatch into this package. Absolute numbers differ
// from the paper (the substrate is a laptop-scale simulator, not MTurk +
// the full dumps) but the comparative shape is the reproduction target;
// README.md's "Reproducing the paper" section says how to run them and
// which of them check the system.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
)

// DefaultSeed is used by cmd/remp-bench and the benches.
const DefaultSeed int64 = 1

// realWorkerConfig models the paper's MTurk setup: qualification-filtered
// workers (≥95% approval) answering each question five times.
func realWorkerConfig(seed int64) crowd.Config {
	return crowd.Config{
		NumWorkers:         50,
		WorkersPerQuestion: 5,
		QualityLow:         0.93,
		QualityHigh:        0.99,
		Seed:               seed,
	}
}

// errorRateConfig models the simulated-worker experiments (Figure 3).
func errorRateConfig(errorRate float64, seed int64) crowd.Config {
	return crowd.Config{
		NumWorkers:         50,
		WorkersPerQuestion: 5,
		ErrorRate:          errorRate,
		Seed:               seed,
	}
}

// newPlatform builds the simulated crowd for a dataset.
func newPlatform(ds *datasets.Dataset, cfg crowd.Config) *crowd.Platform {
	return crowd.NewPlatform(ds.Gold.IsMatch, cfg)
}

// sampleSeeds draws a portion of the gold matches (Table VI).
func sampleSeeds(ds *datasets.Dataset, portion float64, seed int64) []pair.Pair {
	all := ds.Gold.Matches()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	n := int(portion * float64(len(all)))
	out := make([]pair.Pair, 0, n)
	for _, i := range perm[:n] {
		out = append(out, all[i])
	}
	return out
}

// prepare runs Remp's stage 1+2 with the paper's uniform settings.
func prepare(ds *datasets.Dataset, seed int64) *core.Prepared {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.Prepare(ds.K1, ds.K2, cfg)
}

// header prints a rule-delimited table title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, rule(len(title)))
}

func rule(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
