package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/consistency"
	"repro/internal/datasets"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// consistencyObservations is the oracle the seed statistics are held to:
// (|N1|, |N2|, knownL) triples for one edge label over the seeds, in their
// order, following the label's direction, with knownL counted by probing
// the seed set for every (v1, v2) ∈ N1×N2.
func (p *Prepared) consistencyObservations(label ergraph.RelPair, seeds []pair.Pair, seedSet pair.Set) []consistency.Observation {
	var obs []consistency.Observation
	for _, m := range seeds {
		n1, n2 := p.neighbors(label, m)
		if len(n1) == 0 && len(n2) == 0 {
			continue
		}
		known := 0
		for _, v1 := range n1 {
			for _, v2 := range n2 {
				if seedSet.Has(pair.Pair{U1: v1, U2: v2}) {
					known++
					break
				}
			}
		}
		obs = append(obs, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: known})
	}
	return obs
}

// statsWorld is a KB pair with its gold matches. oneSided marks a world
// built so that correct seeds hold rows under labels that only their
// side-2 entity's relationships, or only their entities' InRels, reach.
type statsWorld struct {
	name     string
	k1, k2   *kb.KB
	gold     *pair.Gold
	oneSided bool
}

// statsWorlds are the movie worlds, two Clustered shapes and the
// one-sided works world.
func statsWorlds() []statsWorld {
	var worlds []statsWorld
	for _, n := range []int{4, 9} {
		k1, k2, gold := movieWorld(n, int64(30+n))
		worlds = append(worlds, statsWorld{fmt.Sprintf("movies-%d", n), k1, k2, gold, false})
	}
	for _, c := range []struct{ clusters, size int }{{10, 6}, {24, 10}} {
		ds := datasets.Clustered(c.clusters, c.size, int64(c.clusters))
		worlds = append(worlds, statsWorld{ds.Name, ds.K1, ds.K2, ds.Gold, false})
	}
	k1, k2, gold := oneSidedWorld(24)
	worlds = append(worlds, statsWorld{"one-sided", k1, k2, gold, true})
	return worlds
}

// oneSidedWorld is n works and n/2 authors, each KB missing relationship
// triples the other has: work i has no side-1 author when i%3 == 1, no
// side-2 one when i%3 == 2, and cites work i+1 on side 1 only when
// i%4 == 0 (on side 2 always). So the side-1 entity of work 7, 10, 19, …
// carries no relationship at all while its counterpart carries two, and an
// author, the object of every authorship triple, carries only InRels.
func oneSidedWorld(n int) (*kb.KB, *kb.KB, *pair.Gold) {
	k1, k2 := kb.New("works1"), kb.New("works2")
	wrote1, wrote2 := k1.AddRel("author"), k2.AddRel("writtenBy")
	cites1, cites2 := k1.AddRel("cites"), k2.AddRel("references")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("title")
	var gold []pair.Pair
	add := func(name, typ string) pair.Pair {
		m := pair.Pair{U1: k1.AddEntity("a:" + name), U2: k2.AddEntity("b:" + name)}
		k1.SetLabel(m.U1, name)
		k2.SetLabel(m.U2, name)
		k1.SetType(m.U1, typ)
		k2.SetType(m.U2, typ)
		k1.AddAttrTriple(m.U1, name1, name)
		k2.AddAttrTriple(m.U2, name2, name)
		gold = append(gold, m)
		return m
	}
	authors := make([]pair.Pair, n/2)
	for j := range authors {
		authors[j] = add(fmt.Sprintf("author %d", j), "person")
	}
	works := make([]pair.Pair, n)
	for i := range works {
		works[i] = add(fmt.Sprintf("work %d", i), "work")
	}
	for i, w := range works {
		a := authors[i/2]
		if i%3 != 1 {
			k1.AddRelTriple(w.U1, wrote1, a.U1)
		}
		if i%3 != 2 {
			k2.AddRelTriple(w.U2, wrote2, a.U2)
		}
		if next := works[(i+1)%n]; i%4 == 0 {
			k1.AddRelTriple(w.U1, cites1, next.U1)
			k2.AddRelTriple(w.U2, cites2, next.U2)
		} else {
			k2.AddRelTriple(w.U2, cites2, next.U2)
		}
	}
	return k1, k2, pair.NewGold(gold)
}

// oneSidedRows counts the rows of the seeds' observation lists that only
// the side-2 entity's relationships reach (the side-1 entity carries the
// label's K1 relationship in neither direction), and those that only
// InRels reach (neither entity carries the label's relationship as an
// out-edge).
func (p *Prepared) oneSidedRows(seeds []pair.Pair) (side2, inRels int) {
	for _, label := range p.Graph.Labels() {
		for _, m := range seeds {
			if n1, n2 := p.neighbors(label, m); len(n1) == 0 && len(n2) == 0 {
				continue
			}
			out1, out2 := len(p.K1.Out(m.U1, label.R1)) > 0, len(p.K2.Out(m.U2, label.R2)) > 0
			if !out1 && len(p.K1.In(m.U1, label.R1)) == 0 {
				side2++
			}
			if !out1 && !out2 {
				inRels++
			}
		}
	}
	return side2, inRels
}

// TestSeedStatsMatchScratchObservations is the property test for the
// incremental per-label statistics: for random seed arrival orders and
// random batch splits — including repeated seeds, initial matches
// arriving again and wrong matches — every label's folded observation list
// must equal the consistencyObservations oracle gathered from scratch over the
// canonical seed order, and a label must be marked dirty exactly when its
// list changed. In the one-sided world, rows that only the side-2
// relationships or only InRels reach must occur among the correct
// matches, so a seed's label set missing either is caught.
func TestSeedStatsMatchScratchObservations(t *testing.T) {
	for _, w := range statsWorlds() {
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

				st := newSeedStats(p, p.Initial)
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
				if w.oneSided {
					var correct []pair.Pair
					for _, m := range canonicalSeeds(p.Initial, matches) {
						if w.gold.IsMatch(m) {
							correct = append(correct, m)
						}
					}
					if side2, inRels := p.oneSidedRows(correct); side2 == 0 || inRels == 0 {
						t.Fatalf("correct seeds hold %d rows reached only through side 2 and %d only through InRels; the world must have both", side2, inRels)
					}
				}
			})
		}
	}
}

// TestFitConsistencyMatchesScratchOracle: fitConsistency, which gathers
// through the seed statistics, equals the estimator run over the
// pair-set oracle's observations bit for bit — with consistency.Fit and
// with consistency.FromCounts (Table VI's direct estimator), on the movie
// worlds, two Clustered shapes and d-y, for the initial matches, the
// canonical seed order after random confirmations and Table VI's samples
// of 20 % and 40 % of the gold matches, and for a sample that lists some
// seeds twice.
func TestFitConsistencyMatchesScratchOracle(t *testing.T) {
	dy, err := datasets.ByName("d-y", 1)
	if err != nil {
		t.Fatal(err)
	}
	worlds := append(statsWorlds(), statsWorld{dy.Name, dy.K1, dy.K2, dy.Gold, false})
	known := 0 // oracle rows with a seed counterpart: the count under test
	same := func(a, b consistency.Estimate) bool {
		return math.Float64bits(a.Eps1) == math.Float64bits(b.Eps1) &&
			math.Float64bits(a.Eps2) == math.Float64bits(b.Eps2) &&
			math.Float64bits(a.LogLikelihood) == math.Float64bits(b.LogLikelihood)
	}
	estimators := []struct {
		name string
		fit  func([]consistency.Observation, consistency.Options) consistency.Estimate
	}{{"Fit", consistency.Fit}, {"FromCounts", consistency.FromCounts}}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			p := Prepare(w.k1, w.k2, DefaultConfig())
			rng := rand.New(rand.NewSource(int64(len(w.name))))
			confirmed := pair.Set{}
			for _, v := range p.Graph.Vertices() {
				if rng.Intn(3) == 0 {
					confirmed.Add(v)
				}
			}
			gold := w.gold.Matches()
			sample := func(portion float64) []pair.Pair {
				var out []pair.Pair
				for _, i := range rng.Perm(len(gold))[:int(portion*float64(len(gold)))] {
					out = append(out, gold[i])
				}
				return out
			}
			gold20 := sample(0.2)
			lists := []struct {
				name  string
				seeds []pair.Pair
			}{
				{"initial", p.Initial},
				{"canonical", canonicalSeeds(p.Initial, confirmed)},
				{"gold-20%", gold20},
				{"gold-40%", sample(0.4)},
				{"gold-20%, half listed again", append(slices.Clone(gold20[len(gold20)/2:]), gold20...)},
			}
			for _, l := range lists {
				// A seed listed again counts once, at its first occurrence.
				distinct := canonicalSeeds(l.seeds, pair.Set{})
				seedSet := pair.NewSet(l.seeds...)
				for _, e := range estimators {
					got := p.fitConsistency(l.seeds, e.fit)
					if len(got) != len(p.Graph.Labels()) {
						t.Fatalf("%s seeds, %s: %d estimates for %d labels", l.name, e.name, len(got), len(p.Graph.Labels()))
					}
					for _, label := range p.Graph.Labels() {
						obs := p.consistencyObservations(label, distinct, seedSet)
						for _, o := range obs {
							if o.KnownL > 0 {
								known++
							}
						}
						want := e.fit(obs, consistency.DefaultOptions())
						if !same(got[label], want) {
							t.Fatalf("%s seeds, %s, label %v: %+v, oracle %+v", l.name, e.name, label, got[label], want)
						}
					}
				}
			}
		})
	}
	if known == 0 {
		t.Fatal("no seed had a value with a seed counterpart: the draws test nothing of knownL")
	}
}
