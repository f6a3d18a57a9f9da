package strsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kb"
)

// hostileLiterals spans every Classify kind plus edge cases: numbers with
// whitespace, dates in all accepted shapes, near-dates that fall back to
// strings, unicode text and empties.
var hostileLiterals = []string{
	"", " ", "hello world", "Hello, World!", "the running cities",
	"42", " 42 ", "-3.14", "3.14", "0", "1e3", "0.0001",
	"1999", "2001-05-03", "2001/05/03", "2001-5-3", "1984",
	"2001-13-03", "0000", "12345", "99-99-99",
	"café au lait", "北京 市", "naïve — résumé", "🦀 crab", "O'Neill",
	"same same same", "a b c d e f", "ALLCAPS TEXT", "info", "node3x4",
}

func randLiteral(r *rand.Rand) string {
	return hostileLiterals[r.Intn(len(hostileLiterals))]
}

func randLiteralSet(r *rand.Rand, max int) []string {
	n := r.Intn(max + 1)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, randLiteral(r))
	}
	return out
}

// valueKB returns a frozen KB whose entity i holds sets[i] on its one
// attribute, 0.
func valueKB(sets ...[]string) *kb.KB {
	k := kb.New("values")
	a := k.AddAttr("v")
	for i, set := range sets {
		u := k.AddEntity(fmt.Sprint(i))
		for _, v := range set {
			k.AddAttrTriple(u, a, v)
		}
	}
	k.Freeze()
	return k
}

// addAll marks every value of k on the given side of c.
func addAll(c *Corpus, side int, k *kb.KB) {
	for u := range kb.EntityID(k.NumEntities()) {
		c.Add(side, k.AttrLits(u, 0))
	}
}

// TestCorpusLiteralSimMatches: corpus literal similarity is byte-identical
// to LiteralSimilarity on the raw strings, whether the literals are loaded
// one call each, in one serial batch, or in one batch fanned out over a
// runner. The literals include the float specials, whose NaN similarities
// are compared by their bits.
func TestCorpusLiteralSimMatches(t *testing.T) {
	lits := append([]string{"nan", "Inf", "-infinity"}, hostileLiterals...)
	sets := make([][]string, len(lits))
	for i, lit := range lits {
		sets[i] = []string{lit}
	}
	k := valueKB(sets...)
	id := func(i int) kb.LitID { return k.AttrLits(kb.EntityID(i), 0)[0] }
	one := NewCorpus(k, k, nil)
	for i := range lits {
		one.Add(i%2, []kb.LitID{id(i)})
		one.Load(nil)
		one.Add(1-i%2, []kb.LitID{id(i)})
		one.Load(wideRunner{})
	}
	serial, wide := NewCorpus(k, k, nil), NewCorpus(k, k, new(Workspace))
	for _, c := range []*Corpus{serial, wide} {
		addAll(c, 0, k)
		addAll(c, 1, k)
	}
	serial.Load(nil)
	wide.Load(wideRunner{})
	for _, cs := range []struct {
		name string
		c    *Corpus
	}{{"one by one", one}, {"serial batch", serial}, {"parallel batch", wide}} {
		for i, a := range lits {
			for j, b := range lits {
				want := LiteralSimilarity(a, b)
				if got := cs.c.sim(&cs.c.lits[0][id(i)], &cs.c.lits[1][id(j)]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: sim(%q, %q) = %v, want %v", cs.name, a, b, got, want)
				}
			}
		}
	}
}

// TestCorpusSimLMatches: simL over the KBs' literal-ID rows reproduces
// SimL on their value strings exactly — same greedy pairing, same floats —
// across randomized value sets and thresholds, with the literals loaded in
// two batches.
func TestCorpusSimLMatches(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n = 3000
	var sa, sb [][]string
	for range n {
		sa, sb = append(sa, randLiteralSet(r, 5)), append(sb, randLiteralSet(r, 5))
	}
	k1, k2 := valueKB(sa...), valueKB(sb...)
	c := NewCorpus(k1, k2, nil)
	for u := range kb.EntityID(n / 2) {
		c.Add(0, k1.AttrLits(u, 0))
	}
	c.Load(nil)
	addAll(c, 0, k1)
	addAll(c, 1, k2)
	c.Load(wideRunner{})
	var sc MatchScratch
	for u := range kb.EntityID(n) {
		threshold := float64(r.Intn(11)) / 10
		va, vb := k1.AttrValues(u, 0), k2.AttrValues(u, 0)
		want := SimL(va, vb, threshold)
		if got := c.SimL(k1.AttrLits(u, 0), k2.AttrLits(u, 0), threshold, &sc); got != want {
			t.Fatalf("Corpus SimL(%q, %q, %v) = %v, want %v", va, vb, threshold, got, want)
		}
	}
}

// TestCorpusLoadsEachLiteralOnce: a literal marked twice — within one
// batch, or again after it was loaded — is read once, and a later Load
// leaves what an earlier one loaded as it was.
func TestCorpusLoadsEachLiteralOnce(t *testing.T) {
	k := valueKB([]string{"hello world", "other"}, []string{"hello world", "third words"})
	c := NewCorpus(k, k, nil)
	c.Add(0, k.AttrLits(0, 0))
	c.Add(0, k.AttrLits(0, 0))
	if len(c.fresh[0]) != 2 {
		t.Fatalf("%d literals pending, want 2", len(c.fresh[0]))
	}
	c.Load(nil)
	before := *c
	before.lits[0] = append([]literal(nil), c.lits[0]...)
	c.Add(0, k.AttrLits(0, 0))
	c.Load(wideRunner{})
	if len(c.toks) != len(before.toks) || c.words.Len() != before.words.Len() {
		t.Fatalf("re-loading read %d more tokens", len(c.toks)-len(before.toks))
	}
	c.Add(0, k.AttrLits(1, 0))
	c.Load(wideRunner{})
	if c.words.Len() != 5 {
		t.Fatalf("%d distinct words, want 5 (hello, world, other, third, word)", c.words.Len())
	}
	for _, id := range k.AttrLits(0, 0) {
		if c.lits[0][id] != before.lits[0][id] {
			t.Fatalf("literal %q changed on a later Load", k.Literal(id))
		}
	}
}
