package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/kb"
	"repro/internal/pair"
)

// Clustered builds the clustered synthetic graph the sharding benchmarks
// run on: `clusters` independent relational clusters whose sizes sweep
// from large to small, so the candidate-pair graph decomposes into many
// connected components of diverse weight — the shape partition-wise
// collective ER exploits. Each cluster c is a star: one hub entity pair
// (exact labels on both sides, so hubs seed the initial match set Min)
// relationally linked to its member pairs through a relation family
// shared by every `familyStride`-th cluster. Distinct families give
// shards disjoint consistency parameters, which is what lets the sharded
// loop skip re-estimation rebuilds for shards whose labels did not
// change. About two thirds of the member labels are perturbed on the K2
// side — the initial match set stays small and the crowd has real
// questions to answer — and every cluster carries one isolated pair for
// the §VII-B classifier.
func Clustered(clusters, meanSize int, seed int64) *Dataset {
	if clusters <= 0 {
		clusters = 16
	}
	if meanSize <= 0 {
		meanSize = 12
	}
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("clustered-1")
	k2 := kb.New("clustered-2")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")

	const families = 8
	rel1 := make([]kb.RelID, families)
	rel2 := make([]kb.RelID, families)
	for f := 0; f < families; f++ {
		rel1[f] = k1.AddRel(fmt.Sprintf("links%d", f))
		rel2[f] = k2.AddRel(fmt.Sprintf("connected%d", f))
	}

	var gold []pair.Pair
	addPair := func(base string, perturb bool) (kb.EntityID, kb.EntityID) {
		u1 := k1.AddEntity("a:" + base)
		u2 := k2.AddEntity("b:" + base)
		l2 := base
		// Two thirds of the member labels are perturbed: the initial match
		// set stays small (hubs plus a third of the members), so the
		// consistency estimates genuinely move as the crowd confirms
		// matches and re-estimation does real per-loop work.
		if perturb && rng.Intn(3) != 0 {
			l2 = base + " jr"
		}
		k1.SetLabel(u1, base)
		k2.SetLabel(u2, l2)
		k1.AddAttrTriple(u1, name1, base)
		k2.AddAttrTriple(u2, name2, l2)
		gold = append(gold, pair.Pair{U1: u1, U2: u2})
		return u1, u2
	}

	for c := 0; c < clusters; c++ {
		// Sizes sweep 2× down to ½× the mean, largest first: benefit-greedy
		// selection then works through clusters in roughly shard order, the
		// locality the weight-balanced contiguous shard fill preserves.
		size := meanSize/2 + (2*meanSize-meanSize/2)*(clusters-c)/clusters
		if size < 2 {
			size = 2
		}
		// Families are contiguous bands of clusters, mirroring how schema
		// families cluster in real KBs (type-segregated subgraphs): the
		// weight-balanced contiguous shard fill then aligns shards with
		// families, so a batch resolving one band leaves the other bands'
		// consistency estimates — and their shards — untouched.
		fam := c * families / clusters
		h1, h2 := addPair(fmt.Sprintf("hub%d", c), false)
		var last1, last2 kb.EntityID // the member pair added last
		for m := 0; m < size; m++ {
			m1, m2 := addPair(fmt.Sprintf("node%dx%d", c, m), true)
			prev1, prev2 := last1, last2
			last1, last2 = m1, m2
			k1.AddRelTriple(h1, rel1[fam], m1)
			// Real KBs carry dangling relations: ~15% of the K2 edges are
			// missing, so relationship consistency is genuinely partial and
			// its estimates keep moving as confirmations accumulate —
			// re-estimation does real rebuild work every loop.
			if rng.Intn(7) == 0 {
				continue
			}
			k2.AddRelTriple(h2, rel2[fam], m2)
			if m > 0 && m%3 == 0 {
				// Chain every third member to its predecessor so clusters
				// are not pure stars and propagation has depth to cover.
				k1.AddRelTriple(m1, rel1[fam], prev1)
				k2.AddRelTriple(m2, rel2[fam], prev2)
			}
		}
		addPair(fmt.Sprintf("lone%d", c), false)
	}
	return newDataset(fmt.Sprintf("clustered-%dx%d", clusters, meanSize), k1, k2, gold)
}
