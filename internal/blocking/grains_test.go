package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/par"
)

// TestGrainsMatchSerial: the relabeling, K2's signature index and the
// probe give the serial join — the indexes byte for byte, the candidates
// and initial matches in order — whatever the cut (one grain and one K2
// range, or grains of one entity) and whatever the pool, with no helper
// token or with eight.
func TestGrainsMatchSerial(t *testing.T) {
	defer func(g int) { grainFloor = g }(grainFloor)
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		k1, k2 := randLabeledKB(r, "k1", 40+r.Intn(40)), randLabeledKB(r, "k2", 40+r.Intn(40))
		for _, th := range []float64{0.25, 0.5} {
			want := newJoin(k1, k2, th, nil, nil)
			wantPages, wantInitial := Join(k1, k2, Options{Threshold: th}, nil)
			for _, floor := range []int{1 << 30, 1} {
				grainFloor = floor
				for _, tokens := range []int{0, 8} {
					ctx := fmt.Sprintf("seed %d, threshold %v, floor %d, %d tokens", seed, th, floor, tokens)
					if got := newJoin(k1, k2, th, par.NewScheduler(tokens), nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: the join's indexes differ from the serial ones", ctx)
					}
					pages, initial := Join(k1, k2, Options{Threshold: th, Runner: par.NewScheduler(tokens)}, nil)
					if !reflect.DeepEqual(flatten(pages), flatten(wantPages)) || !reflect.DeepEqual(initial, wantInitial) {
						t.Fatalf("%s: the candidates differ from the serial join's", ctx)
					}
				}
			}
		}
	}
}

// flatten concatenates a join's pages: where they break depends on the
// grains, what they hold does not.
func flatten(pages [][]Candidate) (out []Candidate) {
	for _, p := range pages {
		out = append(out, p...)
	}
	return out
}
