package strsim

import (
	"math/rand"
	"testing"
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
	"same same same", "a b c d e f", "ALLCAPS TEXT",
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

// TestCorpusLiteralSimMatches: interned literal similarity is
// byte-identical to LiteralSimilarity on the raw strings, whether the
// literals are interned one call each, in one serial batch, or in one
// batch fanned out over a runner.
func TestCorpusLiteralSimMatches(t *testing.T) {
	one := NewCorpus(nil)
	var ids []LitID
	for _, lit := range hostileLiterals {
		ids = append(ids, one.InternAll(nil, []string{lit})...)
	}
	serial := NewCorpus(nil)
	par := NewCorpus(nil)
	for _, cs := range []struct {
		name string
		c    *Corpus
		ids  []LitID
	}{
		{"one by one", one, ids},
		{"serial batch", serial, serial.InternAll(nil, hostileLiterals)},
		{"parallel batch", par, par.InternAll(wideRunner{}, hostileLiterals)},
	} {
		for i, a := range hostileLiterals {
			for j, b := range hostileLiterals {
				want := LiteralSimilarity(a, b)
				got := cs.c.LiteralSim(cs.ids[i], cs.ids[j])
				if got != want {
					t.Fatalf("%s: LiteralSim(%q, %q) = %v, want %v", cs.name, a, b, got, want)
				}
			}
		}
	}
}

// TestCorpusSimLMatches: the batched simL over interned sets reproduces
// SimL exactly — same greedy pairing, same floats — across randomized
// value sets and thresholds.
func TestCorpusSimLMatches(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	c := NewCorpus(nil)
	var sc MatchScratch
	for i := 0; i < 3000; i++ {
		va := randLiteralSet(r, 5)
		vb := randLiteralSet(r, 5)
		threshold := float64(r.Intn(11)) / 10
		want := SimL(va, vb, threshold)
		got := c.SimL(c.InternAll(nil, va), c.InternAll(wideRunner{}, vb), threshold, &sc)
		if got != want {
			t.Fatalf("Corpus SimL(%q, %q, %v) = %v, want %v", va, vb, threshold, got, want)
		}
	}
}

// TestCorpusInternIdempotent: re-interning returns the same ID, within
// one batch and across batches.
func TestCorpusInternIdempotent(t *testing.T) {
	c := NewCorpus(nil)
	ids := c.InternAll(nil, []string{"hello world", "other", "hello world"})
	a, b := ids[0], ids[1]
	if ids[2] != a {
		t.Fatal("a repeat within one batch got a new ID")
	}
	if again := c.InternAll(wideRunner{}, []string{"other", "hello world"}); again[0] != b || again[1] != a {
		t.Fatal("re-interning changed IDs")
	}
	if c.lits.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.lits.Len())
	}
}
