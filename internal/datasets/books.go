package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/kb"
	"repro/internal/pair"
)

// Books generates the small library–catalog dataset: authors linked to
// their books in two vocabularies, plus an unlinked editor per cluster
// so the isolated-pair machinery has work. At ~60 entities per side it
// resolves in a handful of human–machine loops, which makes it the
// dataset of choice for the load-generation harness and smoke tests —
// many concurrent sessions stay cheap while every pipeline stage still
// runs.
func Books(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	k1 := kb.New("library")
	k2 := kb.New("catalog")
	name1, name2 := k1.AddAttr("name"), k2.AddAttr("label")
	wrote1, wrote2 := k1.AddRel("wrote"), k2.AddRel("authorOf")

	var gold []pair.Pair
	add := func(base string, perturb bool) (kb.EntityID, kb.EntityID) {
		u1 := k1.AddEntity("lib:" + base)
		u2 := k2.AddEntity("cat:" + base)
		l2 := base
		if perturb && rng.Intn(3) == 0 {
			l2 = base + " (reissue)"
		}
		k1.SetLabel(u1, base)
		k2.SetLabel(u2, l2)
		k1.AddAttrTriple(u1, name1, base)
		k2.AddAttrTriple(u2, name2, l2)
		gold = append(gold, pair.Pair{U1: u1, U2: u2})
		return u1, u2
	}
	const clusters = 15
	for i := 0; i < clusters; i++ {
		a1, a2 := add(fmt.Sprintf("author %d", i), false)
		for b := 0; b < 2; b++ {
			b1, b2 := add(fmt.Sprintf("book %d.%d", i, b), true)
			k1.AddRelTriple(a1, wrote1, b1)
			k2.AddRelTriple(a2, wrote2, b2)
		}
		add(fmt.Sprintf("editor %d", i), false)
	}
	return newDataset("books", k1, k2, gold)
}
