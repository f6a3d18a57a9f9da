package datasets

import "repro/internal/kb"

// DBpediaYAGO synthesizes the DBpedia–YAGO profile, the hardest dataset in
// the evaluation: highly heterogeneous schemas (684 vs 36 attributes in
// the original; here 40 vs 12 with 19 gold correspondences per Table IV),
// missing labels on ~8.4% of matched entities (depressing candidate pair
// completeness to ≈88%, Table V), weak literal overlap on several
// attribute pairs, and ~60% isolated matches (Table VIII) so the
// random-forest fallback carries much of the recall.
func DBpediaYAGO(seed int64) *Dataset {
	b := newBuilder("dbp", "yago", seed)
	k1, k2 := b.k1, b.k2

	// 19 corresponding attribute pairs across several entity types.
	corr := []struct{ n1, n2 string }{
		{"dbp_name", "y_label"},
		{"dbp_birth_date", "y_born_on"},
		{"dbp_death_date", "y_died_on"},
		{"dbp_founded", "y_created_on"},
		{"dbp_population", "y_population"},
		{"dbp_area", "y_area"},
		{"dbp_height", "y_height"},
		{"dbp_budget", "y_budget"},
		{"dbp_duration", "y_duration"},
		{"dbp_release", "y_released_on"},
		{"dbp_pages", "y_pages"},
		{"dbp_isbn", "y_isbn"},
		{"dbp_latitude", "y_latitude"},
		{"dbp_longitude", "y_longitude"},
		{"dbp_motto", "y_motto"},
		{"dbp_gender", "y_gender"},
		{"dbp_revenue", "y_revenue"},
		{"dbp_icd10", "y_icd10"},
		{"dbp_website", "y_website"},
	}
	a1 := map[string]kb.AttrID{}
	a2 := map[string]kb.AttrID{}
	var attrGold []AttrRef
	for _, c := range corr {
		a1[c.n1] = k1.AddAttr(c.n1)
		a2[c.n2] = k2.AddAttr(c.n2)
		attrGold = append(attrGold, AttrRef{A1: c.n1, A2: c.n2})
	}
	// DBpedia-only attribute noise (the 684-attribute long tail).
	for i := 0; i < 21; i++ {
		k1.AddAttr(fid("dbp_rare", i))
	}

	// Relationships.
	rels := []struct{ n1, n2 string }{
		{"dbp_birth_place", "y_was_born_in"},
		{"dbp_director", "y_directed"},
		{"dbp_starring", "y_acted_in"},
		{"dbp_located_in", "y_located_in"},
		{"dbp_employer", "y_works_at"},
	}
	r1 := map[string]kb.RelID{}
	r2 := map[string]kb.RelID{}
	for _, r := range rels {
		r1[r.n1] = k1.AddRel(r.n1)
		r2[r.n2] = k2.AddRel(r.n2)
	}
	for i := 0; i < 8; i++ {
		k1.AddRel(fid("dbp_rel", i)) // DBpedia-only relations
	}

	type ent struct{ u1, u2 kb.EntityID }
	po := pairOpts{perturb: 0.3, dropLabel2: 0.084}

	name := func(u1, u2 kb.EntityID, label string) {
		b.attrBoth(u1, u2, a1["dbp_name"], a2["y_label"], label, 0.9, 0.15)
	}

	// 60 matched cities — the connected backbone.
	var cities []ent
	for i := 0; i < 60; i++ {
		label := b.unique(func() string { return b.pick(cityNames) + " " + b.pick(orgWords) })
		u1, u2 := b.addPair(fid("city", i), label, pairOpts{typ: "city", perturb: 0.2, dropLabel2: po.dropLabel2})
		name(u1, u2, label)
		b.attrBoth(u1, u2, a1["dbp_population"], a2["y_population"], b.year(5000, 2000000), 0.6, 0.15)
		b.attrBoth(u1, u2, a1["dbp_latitude"], a2["y_latitude"], b.year(10, 80), 0.5, 0.1)
		b.attrBoth(u1, u2, a1["dbp_longitude"], a2["y_longitude"], b.year(10, 170), 0.5, 0.1)
		cities = append(cities, ent{u1, u2})
	}

	// 190 matched people: ~50% with cross-KB structure (birth place /
	// employer), the rest isolated.
	var people []ent
	for i := 0; i < 190; i++ {
		label := b.uniquePersonName()
		u1, u2 := b.addPair(fid("per", i), label, pairOpts{typ: "person", perturb: po.perturb, dropLabel2: po.dropLabel2})
		name(u1, u2, label)
		b.attrBoth(u1, u2, a1["dbp_birth_date"], a2["y_born_on"], b.date(1900, 1995), 0.7, 0.1)
		b.attrBoth(u1, u2, a1["dbp_gender"], a2["y_gender"], []string{"male", "female"}[b.rng.Intn(2)], 0.6, 0)
		if b.rng.Float64() < 0.5 {
			c := cities[b.rng.Intn(len(cities))]
			k1.AddRelTriple(u1, r1["dbp_birth_place"], c.u1)
			k2.AddRelTriple(u2, r2["y_was_born_in"], c.u2)
		}
		people = append(people, ent{u1, u2})
	}

	// 140 matched movies: ~35% connected via director/starring.
	for i := 0; i < 140; i++ {
		label := b.uniquePhrase(titleWords, 2+b.rng.Intn(2))
		u1, u2 := b.addPair(fid("mov", i), label, pairOpts{typ: "movie", perturb: po.perturb, dropLabel2: po.dropLabel2})
		name(u1, u2, label)
		b.attrBoth(u1, u2, a1["dbp_release"], a2["y_released_on"], b.year(1950, 2015), 0.7, 0.1)
		b.attrBoth(u1, u2, a1["dbp_duration"], a2["y_duration"], b.year(80, 200), 0.5, 0.1)
		if b.rng.Float64() < 0.35 {
			p := people[b.rng.Intn(len(people))]
			k1.AddRelTriple(u1, r1["dbp_director"], p.u1)
			k2.AddRelTriple(u2, r2["y_directed"], p.u2)
			q := people[b.rng.Intn(len(people))]
			k1.AddRelTriple(u1, r1["dbp_starring"], q.u1)
			k2.AddRelTriple(u2, r2["y_acted_in"], q.u2)
		}
	}

	// 110 matched organizations: ~30% located in cities cross-KB.
	for i := 0; i < 110; i++ {
		label := b.unique(func() string {
			return b.pick(orgWords) + " " + b.pick(orgWords) + " " + []string{"institute", "corporation", "university", "society"}[b.rng.Intn(4)]
		})
		u1, u2 := b.addPair(fid("org", i), label, pairOpts{typ: "organization", perturb: po.perturb, dropLabel2: po.dropLabel2})
		name(u1, u2, label)
		b.attrBoth(u1, u2, a1["dbp_founded"], a2["y_created_on"], b.year(1800, 2000), 0.6, 0.1)
		b.attrBoth(u1, u2, a1["dbp_revenue"], a2["y_revenue"], b.year(1000, 900000), 0.4, 0.2)
		if b.rng.Float64() < 0.3 {
			c := cities[b.rng.Intn(len(cities))]
			k1.AddRelTriple(u1, r1["dbp_located_in"], c.u1)
			k2.AddRelTriple(u2, r2["y_located_in"], c.u2)
		}
	}

	// 100 matched diseases: fully isolated; the icd10 values disagree in
	// format (the paper's G44.847 vs G-50.0 example), so this attribute
	// match is hard to find.
	for i := 0; i < 100; i++ {
		label := b.unique(func() string { return b.pick(diseaseWords) + " " + b.pick(diseaseWords) })
		u1, u2 := b.addPair(fid("dis", i), label, pairOpts{typ: "disease", perturb: 0.25, dropLabel2: po.dropLabel2})
		name(u1, u2, label)
		code := "g" + b.year(10, 99)
		k1.AddAttrTriple(u1, a1["dbp_icd10"], code+"."+b.year(100, 999))
		k2.AddAttrTriple(u2, a2["y_icd10"], "g-"+b.year(10, 99)+".0")
	}

	// DBpedia-only and YAGO-only surplus entities.
	for i := 0; i < 250; i++ {
		u := addOnly(k1, fid("dent", i), b.uniquePersonName(), "person", a1["dbp_name"])
		if b.rng.Float64() < 0.4 {
			k1.AddRelTriple(u, r1["dbp_birth_place"], cities[b.rng.Intn(len(cities))].u1)
		}
	}
	for i := 0; i < 220; i++ {
		addOnly(k2, fid("yent", i), b.uniquePhrase(titleWords, 2), "movie", a2["y_label"])
	}

	return b.finish("D-Y", attrGold)
}
