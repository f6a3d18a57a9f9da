package datasets

import "repro/internal/kb"

// DBLPACM synthesizes the DBLP–ACM profile: publications and authors with
// exactly three attributes (title, year, venue) and a single authorship
// relationship, K2 several times larger than K1 (the paper's 2.61K vs
// 64.3K, here ~350 vs ~1400). The ER graph decomposes into many small
// star-shaped components (one per publication), which is why Remp's
// advantage over POWER is smallest here (Table III) and almost nothing is
// isolated (0.4%).
func DBLPACM(seed int64) *Dataset {
	b := newBuilder("dblp", "acm", seed)
	k1, k2 := b.k1, b.k2

	title1, title2 := k1.AddAttr("title"), k2.AddAttr("title")
	year1, year2 := k1.AddAttr("year"), k2.AddAttr("year")
	venue1, venue2 := k1.AddAttr("venue"), k2.AddAttr("venue")
	wrote1, wrote2 := k1.AddRel("written_by"), k2.AddRel("written_by")

	// A pool of authors; a fraction appears in both KBs.
	type author struct {
		u1, u2 kb.EntityID
		shared bool
	}
	var authors []author
	for i := 0; i < 260; i++ {
		label := b.uniquePersonName()
		if b.rng.Float64() < 0.75 {
			// Shared author; ACM often abbreviates first names.
			u1, u2 := b.addPair(fid("auth", i), label, pairOpts{typ: "author", perturb: 0.5})
			authors = append(authors, author{u1: u1, u2: u2, shared: true})
		} else {
			u1 := addOnly(k1, fid("auth", i), label, "author")
			authors = append(authors, author{u1: u1, shared: false})
		}
	}

	// 110 shared publications (DBLP ⊂ ACM here), written by 1–4 authors.
	// Authorship is assigned so every author appears on at least one
	// publication — on the real D-A authors are split out of publication
	// author fields, so none is isolated (0.4% in Table VIII).
	type pub struct{ u1, u2 kb.EntityID }
	var pubs []pub
	for i := 0; i < 110; i++ {
		label := b.uniquePhrase(topicWords, 4+b.rng.Intn(4))
		u1, u2 := b.addPair(fid("pub", i), label, pairOpts{typ: "publication", perturb: 0.35})
		year := b.year(1995, 2015)
		venue := b.pick(venueNames)
		b.attrBoth(u1, u2, title1, title2, label, 0.98, 0.3)
		b.attrBoth(u1, u2, year1, year2, year, 0.92, 0.05)
		b.attrBoth(u1, u2, venue1, venue2, venue, 0.85, 0.1)
		pubs = append(pubs, pub{u1, u2})
	}
	writtenBy := func(p pub, a author) {
		k1.AddRelTriple(p.u1, wrote1, a.u1)
		if a.shared {
			k2.AddRelTriple(p.u2, wrote2, a.u2)
		}
	}
	// Round-robin guarantees coverage; extra co-authors are random.
	for i, a := range authors {
		writtenBy(pubs[i%len(pubs)], a)
	}
	for _, p := range pubs {
		extra := b.rng.Intn(3)
		for j := 0; j < extra; j++ {
			writtenBy(p, authors[b.rng.Intn(len(authors))])
		}
	}

	// ACM-only publications with ACM-only authors (the K2 surplus).
	var acmAuthors []kb.EntityID
	for i := 0; i < 500; i++ {
		u := addOnly(k2, fid("acmauth", i), b.uniquePersonName(), "author")
		acmAuthors = append(acmAuthors, u)
	}
	for i := 0; i < 450; i++ {
		u := addOnly(k2, fid("acmpub", i), b.uniquePhrase(topicWords, 4+b.rng.Intn(4)), "publication", title2)
		k2.AddAttrTriple(u, year2, b.year(1990, 2015))
		k2.AddAttrTriple(u, venue2, b.pick(venueNames))
		n := 1 + b.rng.Intn(4)
		for j := 0; j < n; j++ {
			k2.AddRelTriple(u, wrote2, acmAuthors[b.rng.Intn(len(acmAuthors))])
		}
	}

	return b.finish("D-A", nil)
}
