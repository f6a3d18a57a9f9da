package datasets

import "repro/internal/kb"

// IMDBYAGO synthesizes the IMDB–YAGO profile: a movie KB (K1) against a
// general-purpose KB (K2) with a larger, mostly disjoint schema. Four
// attribute pairs genuinely correspond (the Table IV gold standard for
// I-Y); relationship vocabularies differ (actedIn/starring etc.); and
// roughly 28% of the true matches are isolated in the ER graph
// (Table VIII), exercising the random-forest fallback.
func IMDBYAGO(seed int64) *Dataset {
	b := newBuilder("imdb", "yago", seed)
	k1, k2 := b.k1, b.k2

	// K1 (IMDB) attributes.
	title1 := k1.AddAttr("title")
	year1 := k1.AddAttr("year")
	birth1 := k1.AddAttr("birth_date")
	dur1 := k1.AddAttr("duration")
	genre1 := k1.AddAttr("genre")
	lang1 := k1.AddAttr("language")
	for _, extra := range []string{"rating", "votes", "color", "aspect_ratio",
		"certificate", "sound_mix", "production_co", "budget"} {
		k1.AddAttr(extra)
	}
	// K2 (YAGO) attributes: the four gold correspondences plus many
	// YAGO-only ones.
	label2 := k2.AddAttr("rdfs_label")
	created2 := k2.AddAttr("was_created_on")
	born2 := k2.AddAttr("was_born_on")
	duration2 := k2.AddAttr("has_duration")
	for _, extra := range []string{"has_gloss", "has_wikipedia_url",
		"has_gender", "has_population", "has_motto", "has_height",
		"has_weight", "has_budget_y", "has_pages", "has_isbn", "has_latitude",
		"has_longitude", "has_area", "has_gdp", "has_inflation",
		"has_poverty", "has_unemployment", "has_revenue", "has_expenses",
		"has_currency", "has_tld", "has_calling_code", "has_capital",
		"has_official_language", "has_number_of_people", "graduated_from",
		"has_air_date", "has_imdb_y", "has_music_composer", "has_website",
		"has_family_name", "has_given_name"} {
		k2.AddAttr(extra)
	}

	attrGold := []AttrRef{
		{A1: "title", A2: "rdfs_label"},
		{A1: "year", A2: "was_created_on"},
		{A1: "birth_date", A2: "was_born_on"},
		{A1: "duration", A2: "has_duration"},
	}

	// Relationships.
	acted1 := k1.AddRel("acted_in")
	directed1 := k1.AddRel("directed")
	k1.AddRel("produced")
	k1.AddRel("wrote_for")
	acted2 := k2.AddRel("acted_in_y")
	directed2 := k2.AddRel("directed_y")
	born2r := k2.AddRel("was_born_in")
	k2.AddRel("is_located_in")
	k2.AddRel("is_married_to")

	type ent struct{ u1, u2 kb.EntityID }

	// Cities exist only in YAGO (so born_in edges never propagate
	// cross-KB, adding realistic one-sided structure).
	var cities []kb.EntityID
	for i := 0; i < 20; i++ {
		cities = append(cities, addOnly(k2, fid("city", i), b.pick(cityNames), "city"))
	}

	po := pairOpts{perturb: 0.3}

	// 110 matched directors.
	var directors []ent
	for i := 0; i < 110; i++ {
		label := b.uniquePersonName()
		u1, u2 := b.addPair(fid("dir", i), label, pairOpts{typ: "person", perturb: po.perturb})
		b.attrBoth(u1, u2, birth1, born2, b.date(1920, 1980), 0.75, 0.1)
		k2.AddAttrTriple(u2, label2, label)
		k1.AddAttrTriple(u1, title1, label)
		if b.rng.Float64() < 0.6 {
			k2.AddRelTriple(u2, born2r, cities[b.rng.Intn(len(cities))])
		}
		directors = append(directors, ent{u1, u2})
	}

	// 160 matched movies.
	var movies []ent
	var movieTitles []string
	for i := 0; i < 160; i++ {
		label := b.uniquePhrase(titleWords, 2+b.rng.Intn(2))
		u1, u2 := b.addPair(fid("mov", i), label, pairOpts{typ: "movie", perturb: po.perturb})
		yr := b.year(1950, 2015)
		b.attrBoth(u1, u2, title1, label2, label, 0.95, 0.1)
		b.attrBoth(u1, u2, year1, created2, yr, 0.85, 0.05)
		b.attrBoth(u1, u2, dur1, duration2, b.year(80, 200), 0.6, 0.1)
		k1.AddAttrTriple(u1, genre1, b.pick(genreNames))
		k1.AddAttrTriple(u1, lang1, b.pick(languageNames))
		m := ent{u1, u2}
		// ~72% of movies get cross-KB relationship structure; the rest
		// stay isolated (feeding Table VIII's 28.1%).
		if b.rng.Float64() < 0.72 {
			d := directors[b.rng.Intn(len(directors))]
			k1.AddRelTriple(m.u1, directed1, d.u1)
			k2.AddRelTriple(m.u2, directed2, d.u2)
		}
		movies = append(movies, m)
		movieTitles = append(movieTitles, label)
	}

	// 230 matched actors; ~70% get acted_in structure, 30% isolated.
	for i := 0; i < 230; i++ {
		label := b.uniquePersonName()
		u1, u2 := b.addPair(fid("act", i), label, pairOpts{typ: "person", perturb: po.perturb})
		b.attrBoth(u1, u2, birth1, born2, b.date(1930, 1995), 0.75, 0.1)
		k1.AddAttrTriple(u1, title1, label)
		k2.AddAttrTriple(u2, label2, label)
		if b.rng.Float64() < 0.7 {
			n := 1 + b.rng.Intn(3)
			for j := 0; j < n; j++ {
				m := movies[b.rng.Intn(len(movies))]
				k1.AddRelTriple(u1, acted1, m.u1)
				k2.AddRelTriple(u2, acted2, m.u2)
			}
		}
		if b.rng.Float64() < 0.5 {
			k2.AddRelTriple(u2, born2r, cities[b.rng.Intn(len(cities))])
		}
	}

	// IMDB-only movies (the 15.1M side is much larger than the overlap).
	for i := 0; i < 350; i++ {
		u := addOnly(k1, fid("imov", i), b.uniquePhrase(titleWords, 2+b.rng.Intn(2)), "movie", title1)
		k1.AddAttrTriple(u, year1, b.year(1930, 2015))
		if b.rng.Float64() < 0.6 {
			k1.AddRelTriple(u, directed1, directors[b.rng.Intn(len(directors))].u1)
		}
	}
	// YAGO-only entities.
	for i := 0; i < 150; i++ {
		u := addOnly(k2, fid("yent", i), b.uniquePersonName(), "person", label2)
		if b.rng.Float64() < 0.4 {
			k2.AddRelTriple(u, born2r, cities[b.rng.Intn(len(cities))])
		}
	}
	// Title homonyms: remakes and same-name movies are common on IMDB, so
	// a slice of matched movies gets an IMDB-only twin with the identical
	// title but an earlier year and another director. These distractors
	// are what make I-Y the hardest dataset for similarity-only methods.
	for i := 0; i < len(movies); i += 6 {
		u := addOnly(k1, fid("twin", i), movieTitles[i], "movie", title1)
		k1.AddAttrTriple(u, year1, b.year(1930, 1949))
		k1.AddRelTriple(u, directed1, directors[b.rng.Intn(len(directors))].u1)
	}

	return b.finish("I-Y", attrGold)
}
