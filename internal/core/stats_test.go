package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/pair"
)

// TestSeedStatsMatchScratchObservations is the property test for the
// incremental per-label statistics: for random seed arrival orders and
// random batch splits — including repeated seeds, initial matches
// arriving again and wrong matches — every label's folded observation list
// must equal consistencyObservations gathered from scratch over the
// canonical seed order, and a label must be marked dirty exactly when its
// list changed.
func TestSeedStatsMatchScratchObservations(t *testing.T) {
	type world struct {
		name   string
		k1, k2 *kb.KB
	}
	var worlds []world
	for _, n := range []int{4, 9} {
		k1, k2, _ := movieWorld(n, int64(30+n))
		worlds = append(worlds, world{fmt.Sprintf("movies-%d", n), k1, k2})
	}
	for _, c := range []struct{ clusters, size int }{{10, 6}, {24, 10}} {
		ds := datasets.Clustered(c.clusters, c.size, int64(c.clusters))
		worlds = append(worlds, world{fmt.Sprintf("clustered-%dx%d", c.clusters, c.size), ds.K1, ds.K2})
	}
	for _, w := range worlds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", w.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := Prepare(w.k1, w.k2, DefaultConfig())
				labels := p.Graph.Labels()
				// Any vertex may become a seed: the crowd confirms wrong
				// pairs too, and an initial match may be confirmed again.
				arrivals := append([]pair.Pair(nil), p.Graph.Vertices()...)
				rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
				arrivals = arrivals[:len(arrivals)*2/3]

				st := newSeedStats(p)
				matches := pair.Set{}
				check := func(ctx string, before [][]consistency.Observation) {
					t.Helper()
					seeds := canonicalSeeds(p.Initial, matches)
					seedSet := pair.NewSet(seeds...)
					for li, label := range labels {
						want := p.consistencyObservations(label, seeds, seedSet)
						got := st.labels[li].obs
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("%s label %v: folded observations diverge from scratch\n got %v\nwant %v", ctx, label, got, want)
						}
						if before != nil {
							changed := !reflect.DeepEqual(before[li], want) && (len(before[li]) > 0 || len(want) > 0)
							if st.labels[li].dirty != changed {
								t.Fatalf("%s label %v: dirty = %v, list changed = %v", ctx, label, st.labels[li].dirty, changed)
							}
						}
					}
				}
				check("initial", nil)
				for batch := 0; len(arrivals) > 0; batch++ {
					size := 1 + rng.Intn(12)
					if size > len(arrivals) {
						size = len(arrivals)
					}
					pending := append([]pair.Pair(nil), arrivals[:size]...)
					arrivals = arrivals[size:]
					if rng.Intn(3) == 0 { // a pair confirmed twice within one batch
						pending = append(pending, pending[rng.Intn(len(pending))])
					}
					before := make([][]consistency.Observation, len(labels))
					for li := range st.labels {
						before[li] = append([]consistency.Observation(nil), st.labels[li].obs...)
						st.labels[li].dirty = false
					}
					for _, m := range pending {
						matches.Add(m)
					}
					st.fold(pending)
					check(fmt.Sprintf("batch %d", batch), before)
				}
			})
		}
	}
}
