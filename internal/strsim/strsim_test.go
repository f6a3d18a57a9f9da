package strsim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  Leading & trailing  ", "leading trailing"},
		{"CamelCase-Hyphenated_underscore", "camelcase hyphenated underscore"},
		{"", ""},
		{"!!!", ""},
		{"Émile Zola", "émile zola"},
		{"a1b2", "a1b2"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenizeAndStem(t *testing.T) {
	got := Tokenize("The Movies were directed")
	want := []string{"the", "movy", "were", "direct"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStem(t *testing.T) {
	cases := []struct{ in, want string }{
		{"cities", "city"},
		{"classes", "class"},
		{"movies", "movy"}, // light stemmer: -ies → -y
		{"running", "runn"},
		{"directed", "direct"},
		{"cats", "cat"},
		{"pass", "pass"},
		{"bus", "bus"},
		{"sun", "sun"}, // too short
		{"is", "is"},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !slices.Equal(got, []string{c.want}) {
			t.Errorf("Tokenize(%q) = %q, want the one stem %q", c.in, got, c.want)
		}
	}
}

func TestTokenSetSortedUnique(t *testing.T) {
	set := TokenSet("b a b c a")
	want := []string{"a", "b", "c"}
	if len(set) != 3 {
		t.Fatalf("TokenSet = %v", set)
	}
	for i := range want {
		if set[i] != want[i] {
			t.Errorf("set[%d] = %q, want %q", i, set[i], want[i])
		}
	}
}

func TestJaccard(t *testing.T) {
	a := TokenSet("joan crawford")
	b := TokenSet("joan crawford")
	if got := Jaccard(a, b); got != 1 {
		t.Errorf("identical sets: Jaccard = %v, want 1", got)
	}
	c := TokenSet("john wayne")
	if got := Jaccard(a, c); got != 0 {
		t.Errorf("disjoint sets: Jaccard = %v, want 0", got)
	}
	d := TokenSet("joan wayne")
	// intersection {joan}, union {joan, crawford, wayne}
	if got := Jaccard(a, d); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(nil, a); got != 0 {
		t.Errorf("empty vs nonempty: Jaccard = %v, want 0", got)
	}
}

func TestNumberSimilarity(t *testing.T) {
	if got := NumberSimilarity(100, 90); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("NumberSimilarity(100,90) = %v, want 0.9", got)
	}
	if got := NumberSimilarity(0, 0); got != 1 {
		t.Errorf("NumberSimilarity(0,0) = %v, want 1", got)
	}
	if got := NumberSimilarity(-5, 5); got != 0 {
		t.Errorf("NumberSimilarity(-5,5) = %v, want 0", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   string
		want LiteralKind
	}{
		{"3.14", KindNumber},
		{"-42", KindNumber},
		{"1452-04-15", KindDate},
		{"1999/12/31", KindDate},
		{"1984", KindNumber}, // bare integers parse as numbers first
		{"Mona Lisa", KindString},
		{"G44.847", KindString},
		{"", KindString},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLiteralSimilarityDates(t *testing.T) {
	if got := LiteralSimilarity("1452-04-15", "1452-04-15"); got != 1 {
		t.Errorf("identical dates: got %v, want 1", got)
	}
	near := LiteralSimilarity("1990-01-01", "1990-01-02")
	if near < 0.999 {
		t.Errorf("adjacent dates should be nearly identical, got %v", near)
	}
	far := LiteralSimilarity("1452-04-15", "1990-01-01")
	if far >= near {
		t.Errorf("far dates (%v) should be less similar than near dates (%v)", far, near)
	}
}

func TestLiteralSimilarityMixedKinds(t *testing.T) {
	// A number vs a string falls back to token Jaccard.
	if got := LiteralSimilarity("42", "42"); got != 1 {
		t.Errorf("same numeric strings: got %v, want 1", got)
	}
	if got := LiteralSimilarity("42", "forty two"); got != 0 {
		t.Errorf("number vs words: got %v, want 0", got)
	}
}

func TestSimL(t *testing.T) {
	a := []string{"alpha", "beta"}
	b := []string{"alpha", "beta"}
	if got := SimL(a, b, 0.9); got != 1 {
		t.Errorf("identical literal sets: got %v, want 1", got)
	}
	c := []string{"alpha"}
	// pairing {alpha}, union size 2 ⇒ 1/2
	if got := SimL(a, c, 0.9); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("subset literal sets: got %v, want 0.5", got)
	}
	if got := SimL(nil, a, 0.9); got != 0 {
		t.Errorf("empty vs nonempty: got %v, want 0", got)
	}
	if got := SimL(nil, nil, 0.9); got != 0 {
		t.Errorf("both empty: got %v, want 0", got)
	}
}

func TestSimLThreshold(t *testing.T) {
	a := []string{"jonathan smith"}
	b := []string{"jonathan smyth"}
	// Token Jaccard between these is 1/3 < 0.9, so no pairing at 0.9...
	if got := SimL(a, b, 0.9); got != 0 {
		t.Errorf("below-threshold literals should not pair: got %v", got)
	}
	// ...but they pair at a permissive threshold.
	if got := SimL(a, b, 0.3); got <= 0 {
		t.Errorf("above-threshold literals should pair: got %v", got)
	}
}

// Property: Jaccard is symmetric, bounded in [0,1], and 1 iff sets equal.
func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := bytesToSet(xs)
		b := bytesToSet(ys)
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		if j1 != j2 {
			return false
		}
		if j1 < 0 || j1 > 1 {
			return false
		}
		if len(a) > 0 && equalSets(a, b) && j1 != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: NumberSimilarity stays in [0,1].
func TestSimilarityBounds(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		ns := NumberSimilarity(x, y)
		return ns >= 0 && ns <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func bytesToSet(xs []uint8) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, x := range xs {
		s := string(rune('a' + x%16))
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
