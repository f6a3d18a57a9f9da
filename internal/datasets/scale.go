package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/kb"
	"repro/internal/pair"
)

// Scale generates a matching-structure stress dataset with n entities per
// KB, built so candidate generation stays near-linear in n: every entity
// label is three tokens — one serial token unique to its gold pair plus
// two drawn from a pool of ~n/50 filler words — so posting lists stay a
// few hundred entries long and a non-matching pair shares at most one
// token (Jaccard 1/5, under the 0.3 blocking threshold) except for rare
// filler collisions. It is the workload behind the 1M-entity Prepare
// benchmark; generation is allocation-lean and runs in seconds at n=1e6.
//
// Structure per gold pair: identical labels with probability 0.35 (these
// form Min), a perturbed two-of-three label otherwise (Jaccard 0.5, a
// candidate but not initial); ~30% of entities carry one or two
// attribute values; a sparse chain relation links consecutive entities.
// An extra n/10 entities per side match nothing.
func Scale(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("scale1")
	k2 := kb.New("scale2")

	poolSize := n / 50
	if poolSize < 10 {
		poolSize = 10
	}
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("w%d", i)
	}

	aName1 := k1.AddAttr("title")
	aYear1 := k1.AddAttr("year")
	aName2 := k2.AddAttr("label")
	aYear2 := k2.AddAttr("published")
	rel1 := k1.AddRel("next")
	rel2 := k2.AddRel("follows")

	gold := make([]pair.Pair, 0, n)
	for i := 0; i < n; i++ {
		serial := fmt.Sprintf("s%d", i)
		fa, fb := pool[rng.Intn(poolSize)], pool[rng.Intn(poolSize)]
		label := serial + " " + fa + " " + fb
		u1 := k1.AddEntity(fmt.Sprintf("scale1:e%d", i))
		u2 := k2.AddEntity(fmt.Sprintf("scale2:e%d", i))
		k1.SetLabel(u1, label)
		if rng.Float64() < 0.35 {
			k2.SetLabel(u2, label) // exact match → initial match set
		} else {
			// Two of three tokens survive: Jaccard 2/4 = 0.5, a candidate
			// above the 0.3 threshold but not an initial match.
			k2.SetLabel(u2, serial+" "+fa+" "+pool[rng.Intn(poolSize)])
		}
		gold = append(gold, pair.Pair{U1: u1, U2: u2})

		if rng.Float64() < 0.3 {
			val := fa + " " + fb + " story"
			k1.AddAttrTriple(u1, aName1, val)
			k2.AddAttrTriple(u2, aName2, val)
			if rng.Float64() < 0.5 {
				year := fmt.Sprintf("%d", 1900+rng.Intn(120))
				k1.AddAttrTriple(u1, aYear1, year)
				k2.AddAttrTriple(u2, aYear2, year)
			}
		}
		if i > 0 && rng.Float64() < 0.2 {
			k1.AddRelTriple(kb.EntityID(i-1), rel1, u1)
			k2.AddRelTriple(kb.EntityID(i-1), rel2, u2)
		}
	}

	// Unmatched tail: serial tokens no counterpart shares.
	extra := n / 10
	for i := 0; i < extra; i++ {
		u1 := k1.AddEntity(fmt.Sprintf("scale1:x%d", i))
		k1.SetLabel(u1, fmt.Sprintf("x1t%d %s %s", i, pool[rng.Intn(poolSize)], pool[rng.Intn(poolSize)]))
		u2 := k2.AddEntity(fmt.Sprintf("scale2:x%d", i))
		k2.SetLabel(u2, fmt.Sprintf("x2t%d %s %s", i, pool[rng.Intn(poolSize)], pool[rng.Intn(poolSize)]))
	}

	return newDataset(fmt.Sprintf("scale-%d", n), k1, k2, gold)
}
