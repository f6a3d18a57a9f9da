// Command remp runs the full Remp pipeline on a dataset pair: either one
// of the built-in synthetic benchmarks or two KB files in the TSV format
// written by cmd/datagen, with a gold standard for the simulated crowd.
//
// Usage:
//
//	remp -dataset iimb                         # built-in benchmark
//	remp -dataset d-y -error-rate 0.15 -mu 20  # tuned run
//	remp -dataset iimb -max-loops 3            # capped human-machine loops
//	remp -kb1 a.tsv -kb2 b.tsv -gold gold.tsv  # external files
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/remp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remp: ")

	dataset := flag.String("dataset", "", "built-in dataset: "+strings.Join(datasets.Names(), ", "))
	kb1Path := flag.String("kb1", "", "first KB (TSV), used when -dataset is empty")
	kb2Path := flag.String("kb2", "", "second KB (TSV)")
	goldPath := flag.String("gold", "", "gold standard (TSV: entity1<TAB>entity2 per line)")
	seed := flag.Int64("seed", 1, "random seed")
	k := flag.Int("k", 4, "k-nearest-neighbor pruning bound")
	tau := flag.Float64("tau", 0.9, "precision threshold τ for propagated matches")
	mu := flag.Int("mu", 10, "questions per human-machine loop µ")
	budget := flag.Int("budget", 0, "question budget (0 = unlimited)")
	maxLoops := flag.Int("max-loops", 0, "cap on human-machine loops (0 = unlimited)")
	shards := flag.Int("shards", 0, "graph shards resolved concurrently (0 = auto, 1 = one shard)")
	errorRate := flag.Float64("error-rate", 0, "simulated worker error rate (0 = MTurk-quality pool)")
	strategy := flag.String("strategy", "greedy", "question selection: greedy | maxinf | maxpr")
	showMatches := flag.Bool("show-matches", false, "print the resolved matches")
	flag.Parse()

	ds, err := loadDataset(*dataset, *kb1Path, *kb2Path, *goldPath, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ds.K1.Stats())
	fmt.Println(ds.K2.Stats())
	fmt.Printf("gold standard: %d matches\n", ds.Gold.Size())

	opts := remp.Options{
		K: *k, Tau: *tau, Mu: *mu, Budget: *budget, MaxLoops: *maxLoops,
		Strategy: *strategy, Seed: *seed, Shards: *shards,
	}
	crowd := remp.NewSimulatedCrowd(ds.Gold.IsMatch, remp.CrowdConfig{
		ErrorRate: *errorRate, Seed: *seed,
	})

	start := time.Now()
	res, err := remp.Resolve(remp.Dataset{K1: ds.K1, K2: ds.K2}, crowd, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	prf := remp.Evaluate(res.Matches, ds.Gold)
	fmt.Printf("\nresolved %d matches in %v\n", len(res.Matches), elapsed.Round(time.Millisecond))
	fmt.Printf("  confirmed by workers: %d\n", len(res.Confirmed))
	fmt.Printf("  inferred by propagation: %d\n", len(res.Propagated))
	fmt.Printf("  predicted by classifier: %d\n", len(res.IsolatedPredicted))
	fmt.Printf("  questions asked: %d in %d loops\n", res.Questions, res.Loops)
	fmt.Printf("  precision %.1f%%  recall %.1f%%  F1 %.1f%%\n",
		100*prf.Precision, 100*prf.Recall, 100*prf.F1)

	if *showMatches {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for p := range res.Matches {
			fmt.Fprintf(w, "%s\t%s\n", ds.K1.EntityName(p.U1), ds.K2.EntityName(p.U2))
		}
	}
}

func loadDataset(name, kb1Path, kb2Path, goldPath string, seed int64) (*datasets.Dataset, error) {
	if name != "" {
		return datasets.ByName(name, seed)
	}
	if kb1Path == "" || kb2Path == "" || goldPath == "" {
		return nil, fmt.Errorf("either -dataset or all of -kb1/-kb2/-gold are required")
	}
	k1, err := readKB(kb1Path)
	if err != nil {
		return nil, err
	}
	k2, err := readKB(kb2Path)
	if err != nil {
		return nil, err
	}
	gold, err := readGold(goldPath, k1, k2)
	if err != nil {
		return nil, err
	}
	return &datasets.Dataset{Name: "custom", K1: k1, K2: k2, Gold: gold}, nil
}

func readKB(path string) (*kb.KB, error) {
	// Binary snapshots (datagen -format snap) load without re-parsing;
	// anything else is the line-based TSV format.
	if strings.HasSuffix(path, kb.SnapshotExt) {
		return kb.OpenSnapshot(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kb.ReadTSV(f)
}

func readGold(path string, k1, k2 *kb.KB) (*pair.Gold, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var matches []pair.Pair
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want entity1<TAB>entity2", path, line)
		}
		u1 := k1.Entity(parts[0])
		u2 := k2.Entity(parts[1])
		if u1 == kb.NoEntity || u2 == kb.NoEntity {
			return nil, fmt.Errorf("%s:%d: unknown entity in %q", path, line, text)
		}
		matches = append(matches, pair.Pair{U1: u1, U2: u2})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pair.NewGold(matches), nil
}
