package strsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/par"
)

// TestGrainsMatchSerial: the interning and the literal classification
// give the serial result whatever the cut — one grain, or grains of one
// text — and whatever the pool, with no helper token or with eight.
func TestGrainsMatchSerial(t *testing.T) {
	defer func(g, b int) { internGrain, internBatch = g, b }(internGrain, internBatch)
	internBatch = 50 // several batches, each cut in grains
	for seed := int64(1); seed <= 3; seed++ {
		rounds := internRounds(seed)
		for _, tokenize := range []bool{false, true} {
			serial := internIDs(rounds, nil, tokenize)
			var lits []string
			for _, texts := range rounds {
				lits = append(lits, texts...)
			}
			c := NewCorpus(nil)
			ids := c.InternAll(nil, lits)
			for _, floor := range []int{1 << 30, 1} {
				internGrain = floor
				for _, tokens := range []int{0, 8} {
					ctx := fmt.Sprintf("seed %d, tokenize %v, floor %d, %d tokens", seed, tokenize, floor, tokens)
					if got := internIDs(rounds, par.NewScheduler(tokens), tokenize); !reflect.DeepEqual(got, serial) {
						t.Fatalf("%s: IDs differ from the serial interning", ctx)
					}
					g := NewCorpus(nil)
					if got := g.InternAll(par.NewScheduler(tokens), lits); !reflect.DeepEqual(got, ids) || !reflect.DeepEqual(g, c) {
						t.Fatalf("%s: the corpus differs from the serial one", ctx)
					}
				}
			}
		}
	}
}
