package datasets

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kb"
	"repro/internal/pair"
)

// builder accumulates a two-KB dataset with gold bookkeeping and shared
// perturbation machinery.
type builder struct {
	rng  *rand.Rand
	k1   *kb.KB
	k2   *kb.KB
	gold []pair.Pair
	used map[string]bool
}

func newBuilder(name1, name2 string, seed int64) *builder {
	return &builder{
		rng:  rand.New(rand.NewSource(seed)),
		k1:   kb.New(name1),
		k2:   kb.New(name2),
		used: map[string]bool{},
	}
}

// unique retries gen until it produces a label not yet used (labels in
// real KBs are near-unique); after a few collisions it appends a
// distinguishing numeric token, as real data does ("john smith ii").
func (b *builder) unique(gen func() string) string {
	for try := 0; try < 6; try++ {
		l := gen()
		if !b.used[l] {
			b.used[l] = true
			return l
		}
	}
	for i := 2; ; i++ {
		l := fmt.Sprintf("%s %d", gen(), i)
		if !b.used[l] {
			b.used[l] = true
			return l
		}
	}
}

// uniquePersonName returns an unused "first last" (or "first middle last")
// name.
func (b *builder) uniquePersonName() string {
	return b.unique(func() string {
		if b.rng.Intn(2) == 0 {
			return b.pick(firstNames) + " " + b.pick(lastNames) + " " + b.pick(lastNames)
		}
		return b.personName()
	})
}

// uniquePhrase returns an unused phrase of n words from pool.
func (b *builder) uniquePhrase(pool []string, n int) string {
	return b.unique(func() string { return b.phrase(pool, n) })
}

// pairOpts controls how a matched entity pair is materialized.
type pairOpts struct {
	typ string
	// perturb probabilistically distorts the K2 label (token swap/append,
	// abbreviation) while staying above the blocking threshold most of the
	// time.
	perturb float64
	// dropLabel2 removes the K2 label entirely with this probability (the
	// unlabeled entities of D-Y).
	dropLabel2 float64
}

// addPair creates a matched entity pair with the given label and options,
// records the gold match, and returns both IDs.
func (b *builder) addPair(name, label string, o pairOpts) (kb.EntityID, kb.EntityID) {
	u1 := b.k1.AddEntity(b.k1.Name() + ":" + name)
	u2 := b.k2.AddEntity(b.k2.Name() + ":" + name)
	b.k1.SetLabel(u1, label)
	l2 := label
	if o.perturb > 0 && b.rng.Float64() < o.perturb {
		l2 = b.perturbLabel(label)
	}
	if o.dropLabel2 > 0 && b.rng.Float64() < o.dropLabel2 {
		l2 = ""
	}
	b.k2.SetLabel(u2, l2)
	if o.typ != "" {
		b.k1.SetType(u1, o.typ)
		b.k2.SetType(u2, o.typ)
	}
	b.gold = append(b.gold, pair.Pair{U1: u1, U2: u2})
	return u1, u2
}

// addOnly creates an entity of k alone (no counterpart), its label also
// the value of each of labelAttrs.
func addOnly(k *kb.KB, name, label, typ string, labelAttrs ...kb.AttrID) kb.EntityID {
	u := k.AddEntity(k.Name() + ":" + name)
	k.SetLabel(u, label)
	k.SetType(u, typ)
	for _, a := range labelAttrs {
		k.AddAttrTriple(u, a, label)
	}
	return u
}

// perturbLabel applies one of several realistic distortions: dropping a
// token, appending a disambiguator, abbreviating the first token, or a
// one-character typo.
func (b *builder) perturbLabel(label string) string {
	toks := strings.Fields(label)
	if len(toks) == 0 {
		return label
	}
	switch b.rng.Intn(4) {
	case 0: // drop one token (if that leaves something)
		if len(toks) > 2 {
			i := b.rng.Intn(len(toks))
			toks = append(toks[:i], toks[i+1:]...)
		}
	case 1: // append a disambiguator
		toks = append(toks, []string{"jr", "ii", "the"}[b.rng.Intn(3)])
	case 2: // abbreviate the first token ("john" → "j")
		if len(toks[0]) > 2 {
			toks[0] = toks[0][:1]
		}
	case 3: // one-character typo in the longest token
		li := 0
		for i, t := range toks {
			if len(t) > len(toks[li]) {
				li = i
			}
		}
		t := []byte(toks[li])
		if len(t) > 3 {
			t[1+b.rng.Intn(len(t)-2)] = byte('a' + b.rng.Intn(26))
			toks[li] = string(t)
		}
	}
	return strings.Join(toks, " ")
}

// pick returns a random element of pool.
func (b *builder) pick(pool []string) string { return pool[b.rng.Intn(len(pool))] }

// personName composes "first last" names; the pools give ~1600 distinct
// combinations.
func (b *builder) personName() string {
	return b.pick(firstNames) + " " + b.pick(lastNames)
}

// phrase joins n distinct words from pool.
func (b *builder) phrase(pool []string, n int) string {
	seen := map[string]bool{}
	var toks []string
	for len(toks) < n {
		w := b.pick(pool)
		if !seen[w] {
			seen[w] = true
			toks = append(toks, w)
		}
	}
	return strings.Join(toks, " ")
}

// year returns a year string in [lo, hi].
func (b *builder) year(lo, hi int) string {
	return fmt.Sprintf("%d", lo+b.rng.Intn(hi-lo+1))
}

// date returns a YYYY-MM-DD string.
func (b *builder) date(loYear, hiYear int) string {
	return fmt.Sprintf("%d-%02d-%02d",
		loYear+b.rng.Intn(hiYear-loYear+1), 1+b.rng.Intn(12), 1+b.rng.Intn(28))
}

// attrBoth writes the same value to both sides of a matched pair, with
// probability pKeep2 of K2 keeping it (attribute sparsity) and pNoise2 of
// K2 receiving a perturbed value instead.
func (b *builder) attrBoth(u1, u2 kb.EntityID, a1 kb.AttrID, a2 kb.AttrID, val string, pKeep2, pNoise2 float64) {
	b.k1.AddAttrTriple(u1, a1, val)
	if b.rng.Float64() >= pKeep2 {
		return
	}
	v2 := val
	if b.rng.Float64() < pNoise2 {
		v2 = b.perturbLabel(val)
	}
	b.k2.AddAttrTriple(u2, a2, v2)
}

// fid formats a deterministic entity identifier.
func fid(prefix string, i int) string { return fmt.Sprintf("%s%04d", prefix, i) }

// finish assembles the Dataset.
func (b *builder) finish(name string, attrGold []AttrRef) *Dataset {
	ds := newDataset(name, b.k1, b.k2, b.gold)
	ds.AttrGold = attrGold
	return ds
}
