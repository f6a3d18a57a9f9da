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
		serial := internIDs(rounds, nil)
		k1, k2 := valueKB(rounds[0], rounds[1]), valueKB(rounds[2])
		load := func(r par.Runner) *Corpus {
			c := NewCorpus(k1, k2, nil)
			c.Add(0, k1.AttrLits(0, 0))
			c.Load(r)
			addAll(c, 1, k2)
			addAll(c, 0, k1)
			c.Load(r)
			return c
		}
		c := load(nil)
		for _, floor := range []int{1 << 30, 1} {
			internGrain = floor
			for _, tokens := range []int{0, 8} {
				ctx := fmt.Sprintf("seed %d, floor %d, %d tokens", seed, floor, tokens)
				if got := internIDs(rounds, par.NewScheduler(tokens)); !reflect.DeepEqual(got, serial) {
					t.Fatalf("%s: IDs differ from the serial interning", ctx)
				}
				if got := load(par.NewScheduler(tokens)); !reflect.DeepEqual(got, c) {
					t.Fatalf("%s: the corpus differs from the serial one", ctx)
				}
			}
		}
	}
}
