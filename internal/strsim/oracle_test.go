package strsim

// The string composition Normalize, Tokenize and TokenSet had before they
// became wrappers over AppendWords, kept (renamed) as the reference the
// byte tokenizer is held to: a strings.Builder normalization, a
// strings.Fields split, one string per stem and a dedup map per set.

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/datasets"
	"repro/internal/kb"
)

func oracleNormalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

func oracleTokenize(s string) []string {
	norm := oracleNormalize(s)
	if norm == "" {
		return nil
	}
	fields := strings.Fields(norm)
	out := fields[:0]
	for _, f := range fields {
		if t := oracleStem(f); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func oracleTokenSet(s string) []string {
	toks := oracleTokenize(s)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(toks))
	set := make([]string, 0, len(toks))
	for _, t := range toks {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		set = append(set, t)
	}
	insertionSort(set)
	return set
}

func insertionSort(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func oracleStem(token string) string {
	n := len(token)
	if n < 4 {
		return token
	}
	switch {
	case strings.HasSuffix(token, "ies") && n > 4:
		return token[:n-3] + "y"
	case strings.HasSuffix(token, "sses"):
		return token[:n-2]
	case strings.HasSuffix(token, "es") && n > 4:
		return token[:n-2]
	case strings.HasSuffix(token, "s") && !strings.HasSuffix(token, "ss") && !strings.HasSuffix(token, "us"):
		return token[:n-1]
	case strings.HasSuffix(token, "ing") && n > 5:
		return token[:n-3]
	case strings.HasSuffix(token, "ed") && n > 4:
		return token[:n-2]
	}
	return token
}

// tokenizerSeeds are FuzzTokenSet's seed corpus: invalid UTF-8, non-ASCII
// letters and digits whose case mapping or width is unusual, punctuation
// runs, and every stemmer suffix (and its ss/us exceptions) as a word of
// three to six bytes, lower and upper case.
func tokenizerSeeds() []string {
	seeds := []string{
		"", " ", "\xff", "ab\xc3", "\xed\xa0\x80 x", "a\x80b", "caf\xc3\xa9\xff s",
		"İstanbul", "STRASSE Straße", "ΣΟΦΙΑ σοφία", "٣٤ items", "ﬁles ﬁnd",
		"ǅemal", "Ⅻ", "\u212aelvin", "\u00a0nbsp\u2003em",
		"--..,,!!", "a--b,,c..d", "(x) [y] {z}", "rock-n-roll", "O'Neill's",
	}
	for _, suf := range []string{"ies", "sses", "es", "s", "ss", "us", "ing", "ed"} {
		for n := 3; n <= 6; n++ {
			if n < len(suf) {
				continue
			}
			w := strings.Repeat("x", n-len(suf)) + suf
			seeds = append(seeds, w, strings.ToUpper(w), "a "+w+" "+w)
		}
	}
	return seeds
}

// FuzzTokenSet holds the byte tokenizer to the string composition it
// replaced: on arbitrary bytes Normalize, Tokenize and TokenSet return what
// the oracle returns.
func FuzzTokenSet(f *testing.F) {
	for _, s := range tokenizerSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Normalize(s), oracleNormalize(s); got != want {
			t.Fatalf("Normalize(%q) = %q, oracle %q", s, got, want)
		}
		if got, want := Tokenize(s), oracleTokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", s, got, want)
		}
		if got, want := TokenSet(s), oracleTokenSet(s); !slices.Equal(got, want) {
			t.Fatalf("TokenSet(%q) = %q, oracle %q", s, got, want)
		}
	})
}

// TestAppendWordsAllocFree: once its buffers have grown, the tokenizer
// allocates nothing, ASCII and non-ASCII alike.
func TestAppendWordsAllocFree(t *testing.T) {
	seeds := tokenizerSeeds()
	var buf []byte
	var ends []int32
	run := func() {
		for _, s := range seeds {
			buf, ends = AppendWords(buf[:0], ends[:0], s, true)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("AppendWords allocates %v times per pass, want 0", allocs)
	}
}

// oracleClassify is Classify as it was before it skipped the number parse
// for text that cannot start a float literal: ParseFloat on every literal.
func oracleClassify(lit string) LiteralKind {
	s := strings.TrimSpace(lit)
	if s == "" {
		return KindString
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return KindNumber
	}
	if _, ok := oracleParseDate(s); ok {
		return KindDate
	}
	return KindString
}

// oracleParseDate is parseDate as it was before it stopped allocating: a
// strings.Split and strconv.Atoi on every part.
func oracleParseDate(s string) (float64, bool) {
	sep := byte('-')
	if strings.Count(s, "/") == 2 {
		sep = '/'
	} else if strings.Count(s, "-") != 2 {
		if len(s) == 4 {
			if y, err := strconv.Atoi(s); err == nil && y > 0 {
				return float64(y) * 365.2425, true
			}
		}
		return 0, false
	}
	parts := strings.Split(s, string(sep))
	if len(parts) != 3 {
		return 0, false
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, false
	}
	if y <= 0 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	return float64(y)*365.2425 + float64(m-1)*30.44 + float64(d), true
}

// FuzzClassify holds Classify to the oracle that parses every literal as
// a float first, and parseDate to its Split-and-Atoi form: on arbitrary
// strings they agree.
func FuzzClassify(f *testing.F) {
	for _, s := range []string{
		"", "Inf", "inf", "infinity", "-infinity", "+INF", "NaN", "nan", "0x1p-2", "1_0", "0x_1p0", " 42 ", ".5", "+", "-",
		"G44.847", "1e400", "1999", "1999-12-31", "+2000-01-01", "1999/12/31", "Infinity and beyond",
		"\xff", "4\xff", "\u00a012\u2003", "info", "+123", "-123", "2001-+5-03", "2001/05/+3", "１２３４", "99999999999999999999-1-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Classify(s), oracleClassify(s); got != want {
			t.Fatalf("Classify(%q) = %v, oracle %v", s, got, want)
		}
		got, ok := parseDate(s)
		if want, wantOK := oracleParseDate(s); got != want || ok != wantOK {
			t.Fatalf("parseDate(%q) = %v, %v, oracle %v, %v", s, got, ok, want, wantOK)
		}
	})
}

// TestClassifyMatchesParseFirst: Classify, which parses no text that
// starts with a letter unless it is nan, inf or infinity, agrees with the
// parse-every-literal oracle on the float specials and their near misses
// and on every literal of the built-in datasets, and allocates nothing on
// text that is not a number.
func TestClassifyMatchesParseFirst(t *testing.T) {
	lits := []string{"nan", "NaN", "NAN", "+Inf", "-inf", "inf", "Infinity", "-INFINITY", "infinit",
		"info", "nanx", " nan ", "in", "n", "i", "Nan1", "infinityx", "node3x4", "Inception"}
	for _, name := range datasets.Names() {
		ds, err := datasets.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*kb.KB{ds.K1, ds.K2} {
			for id := range kb.LitID(k.NumLiterals()) {
				lits = append(lits, k.Literal(id))
			}
		}
	}
	for _, lit := range lits {
		if got, want := Classify(lit), oracleClassify(lit); got != want {
			t.Fatalf("Classify(%q) = %v, oracle %v", lit, got, want)
		}
	}
	for _, lit := range []string{"node3x4", "info", "nanx", "Inception", "hello world", "O'Neill"} {
		if n := testing.AllocsPerRun(20, func() { Classify(lit) }); n != 0 {
			t.Errorf("Classify(%q) allocates %v times, want 0", lit, n)
		}
	}
}
