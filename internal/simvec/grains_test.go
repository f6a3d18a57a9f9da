package simvec

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attrmatch"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
)

// TestGrainsMatchSerial: AllIn's scoring gives the serial vectors
// whatever the cut — one grain, or grains of one pair — and whatever the
// pool, with no helper token or with eight.
func TestGrainsMatchSerial(t *testing.T) {
	defer func(g int) { scoreGrain = g }(scoreGrain)
	r := rand.New(rand.NewSource(61))
	k1 := randAttrKB(r, "k1", 30, 3)
	k2 := randAttrKB(r, "k2", 25, 4)
	matches := []attrmatch.Match{{A1: 0, A2: 0}, {A1: 1, A2: 2}, {A1: 2, A2: 3}, {A1: 0, A2: 1}}
	var pairs []pair.Pair
	for u1 := range k1.NumEntities() {
		for u2 := range k2.NumEntities() {
			if r.Intn(3) == 0 {
				pairs = append(pairs, pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)})
			}
		}
	}
	want := NewBuilder(k1, k2, matches, 0.9).AllIn(pairs, nil)
	for _, floor := range []int{1 << 30, 1} {
		scoreGrain = floor
		for _, tokens := range []int{0, 8} {
			b := NewBuilder(k1, k2, matches, 0.9)
			b.SetRunner(par.NewScheduler(tokens))
			if got := b.AllIn(pairs, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("floor %d, %d tokens: the vectors differ from the serial ones", floor, tokens)
			}
		}
	}
}
