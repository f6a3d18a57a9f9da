package attrmatch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
)

// TestGrainsMatchSerial: the contribution pass gives the serial simA
// matrix — float accumulation order included — whatever the cut (one
// grain, or grains of one match) and whatever the pool, with no helper
// token or with eight.
func TestGrainsMatchSerial(t *testing.T) {
	defer func(g int) { matchGrain = g }(matchGrain)
	r := rand.New(rand.NewSource(61))
	k1 := randAttrKB(r, "k1", 40, 3)
	k2 := randAttrKB(r, "k2", 40, 4)
	var min []pair.Pair
	for range 60 {
		min = append(min, pair.Pair{U1: kb.EntityID(r.Intn(k1.NumEntities())), U2: kb.EntityID(r.Intn(k2.NumEntities()))})
	}
	want := Similarities(k1, k2, min, DefaultOptions())
	for _, floor := range []int{1 << 30, 1} {
		matchGrain = floor
		for _, tokens := range []int{0, 8} {
			opts := DefaultOptions()
			opts.Runner = par.NewScheduler(tokens)
			if got := Similarities(k1, k2, min, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("floor %d, %d tokens: simA differs from the serial matrix", floor, tokens)
			}
		}
	}
}
