// Package strsim provides the string normalization and similarity measures
// used throughout the Remp pipeline: label tokenization with stemming, the
// Jaccard coefficient on token sets, numeric and date similarity by maximum
// percentage difference, and the extended Jaccard measure simL over sets of
// literals (Naumann & Herschel, "An Introduction to Duplicate Detection").
//
// All functions are pure and safe for concurrent use.
package strsim

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// AppendWords is the one normalizer and tokenizer behind every label and
// literal (§IV-B). A word of s is a maximal run of letters and digits,
// lowercased; everything else separates words. AppendWords appends the
// words of s to buf back to back — stemmed in place when stem is set —
// and each word's end offset in buf to ends, so word i of the call is
// buf[ends[i-1]:ends[i]] (buf's old length for i = 0). ASCII is lowered
// byte by byte; above 0x7F it falls back to package unicode, and an
// invalid UTF-8 byte separates like punctuation. Once buf and ends have
// grown it does not allocate.
//
//remp:hotpath
func AppendWords(buf []byte, ends []int32, s string, stem bool) ([]byte, []int32) {
	start := len(buf)
	for i := 0; i < len(s); {
		c, size, word := s[i], 1, true
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			buf = append(buf, c)
		case 'A' <= c && c <= 'Z':
			buf = append(buf, c+'a'-'A')
		case c < utf8.RuneSelf:
			word = false
		default:
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			if word = unicode.IsLetter(r) || unicode.IsDigit(r); word {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			}
		}
		i += size
		if !word && len(buf) > start {
			buf, ends = endWord(buf, ends, start, stem)
			start = len(buf)
		}
	}
	if len(buf) > start {
		buf, ends = endWord(buf, ends, start, stem)
	}
	return buf, ends
}

// endWord closes the word buf[start:], stemming it in place if asked.
func endWord(buf []byte, ends []int32, start int, stem bool) ([]byte, []int32) {
	if stem {
		keep, y := stemWord(buf[start:])
		buf = buf[:start+keep]
		if y {
			buf = append(buf, 'y')
		}
	}
	return buf, append(ends, int32(len(buf)))
}

// Normalize lowercases s, replaces punctuation with spaces and collapses
// runs of whitespace: the words of AppendWords, unstemmed, joined by one
// space. It is the first step of label preprocessing described in §IV-B of
// the paper.
func Normalize(s string) string {
	buf, ends := AppendWords(make([]byte, 0, len(s)), nil, s, false)
	out := make([]byte, 0, len(buf)+len(ends))
	from := int32(0)
	for i, e := range ends {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, buf[from:e]...)
		from = e
	}
	return string(out)
}

// Tokenize normalizes s and splits it into tokens, applying light stemming
// to each token. The result preserves token order and may contain
// duplicates; use TokenSet for the deduplicated form.
func Tokenize(s string) []string {
	buf, ends := AppendWords(nil, nil, s, true)
	if len(ends) == 0 {
		return nil
	}
	all := string(buf)
	out := make([]string, len(ends))
	from := int32(0)
	for i, e := range ends {
		out[i] = all[from:e]
		from = e
	}
	return out
}

// TokenSet returns the deduplicated, sorted token set of s.
func TokenSet(s string) []string {
	toks := Tokenize(s)
	slices.Sort(toks)
	return slices.Compact(toks)
}

// stemWord is the light suffix-stripping stemmer applied to every word (a
// compact subset of Porter's rules sufficient for blocking): plural
// -s/-es/-ies, -ing, -ed. The stem of tok is tok[:keep], followed by "y"
// when y is set; words shorter than four bytes are left unchanged.
func stemWord(tok []byte) (keep int, y bool) {
	n := len(tok)
	if n < 4 {
		return n, false
	}
	c4, c3, c2, c1 := tok[n-4], tok[n-3], tok[n-2], tok[n-1]
	switch {
	case c3 == 'i' && c2 == 'e' && c1 == 's' && n > 4:
		return n - 3, true
	case c4 == 's' && c3 == 's' && c2 == 'e' && c1 == 's':
		return n - 2, false
	case c2 == 'e' && c1 == 's' && n > 4:
		return n - 2, false
	case c1 == 's' && c2 != 's' && c2 != 'u':
		return n - 1, false
	case c3 == 'i' && c2 == 'n' && c1 == 'g' && n > 5:
		return n - 3, false
	case c2 == 'e' && c1 == 'd' && n > 4:
		return n - 2, false
	}
	return n, false
}

// intersectionSize returns |a ∩ b| for sorted string slices.
func intersectionSize(a, b []string) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Jaccard returns |a∩b| / |a∪b| for sorted token sets. Two empty sets have
// similarity 0 (entities without labels never block together).
func Jaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := intersectionSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// NumberSimilarity compares two numbers by maximum percentage difference:
// 1 − |x−y| / max(|x|,|y|), clamped to [0,1]. Both zero yields 1.
func NumberSimilarity(x, y float64) float64 {
	if x == y {
		return 1
	}
	ax, ay := x, y
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	m := ax
	if ay > m {
		m = ay
	}
	if m == 0 {
		return 1
	}
	d := x - y
	if d < 0 {
		d = -d
	}
	s := 1 - d/m
	if s < 0 {
		return 0
	}
	return s
}

// LiteralKind classifies a literal for LiteralSimilarity dispatch.
type LiteralKind uint8

// Literal kinds recognized by Classify.
const (
	KindString LiteralKind = iota
	KindNumber
	KindDate
)

// Classify reports whether lit parses as a number, a date (YYYY-MM-DD or
// YYYY/MM/DD or bare year), or is plain text.
func Classify(lit string) LiteralKind {
	s := strings.TrimSpace(lit)
	if s == "" {
		return KindString
	}
	// ParseFloat accepts nothing that starts with another byte, and each
	// failure allocates an error: other text goes straight to the dates.
	// Of text starting with a letter it accepts exactly nan, inf and
	// infinity in any case, so such text is never parsed here.
	switch c := s[0]; {
	case c == 'i', c == 'I', c == 'n', c == 'N':
		if strings.EqualFold(s, "nan") || strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") {
			return KindNumber
		}
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.':
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			return KindNumber
		}
	}
	if _, ok := parseDate(s); ok {
		return KindDate
	}
	return KindString
}

// parseDate accepts YYYY-MM-DD, YYYY/MM/DD and YYYY, returning days since
// year 0 on success (a monotone encoding good enough for similarity). It
// allocates nothing.
func parseDate(s string) (float64, bool) {
	sep := "-"
	if strings.Count(s, "/") == 2 {
		sep = "/"
	} else if strings.Count(s, "-") != 2 {
		if len(s) == 4 {
			if y, ok := atoi(s); ok && y > 0 {
				return float64(y) * 365.2425, true
			}
		}
		return 0, false
	}
	ys, rest, _ := strings.Cut(s, sep)
	ms, ds, _ := strings.Cut(rest, sep)
	y, ok1 := atoi(ys)
	m, ok2 := atoi(ms)
	d, ok3 := atoi(ds)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	if y <= 0 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	return float64(y)*365.2425 + float64(m-1)*30.44 + float64(d), true
}

// atoi is strconv.Atoi without the error it allocates for text that is
// not signs and digits.
func atoi(s string) (int, bool) {
	if d := strings.TrimLeft(s, "+-"); d == "" || strings.Trim(d, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// LiteralSimilarity compares two literals, dispatching on their kinds:
// Jaccard over token sets for strings, maximum percentage difference for
// numbers and dates (§IV-C). Mixed kinds compare as strings.
func LiteralSimilarity(a, b string) float64 {
	ka, kb := Classify(a), Classify(b)
	if ka == kb {
		switch ka {
		case KindNumber:
			x, _ := strconv.ParseFloat(strings.TrimSpace(a), 64)
			y, _ := strconv.ParseFloat(strings.TrimSpace(b), 64)
			return NumberSimilarity(x, y)
		case KindDate:
			x, _ := parseDate(strings.TrimSpace(a))
			y, _ := parseDate(strings.TrimSpace(b))
			return NumberSimilarity(x, y)
		}
	}
	return Jaccard(TokenSet(a), TokenSet(b))
}

// SimL is the extended Jaccard similarity over two sets of literals: the
// size of the "soft intersection" (greedy one-to-one pairing of literals
// whose internal similarity is at least threshold) divided by the size of
// the union under that pairing. This follows the duplicate-detection
// formulation referenced in §IV-C; the paper uses threshold 0.9.
func SimL(va, vb []string, threshold float64) float64 {
	if len(va) == 0 && len(vb) == 0 {
		return 0
	}
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	used := make([]bool, len(vb))
	matched := 0
	for _, la := range va {
		best, bestSim := -1, threshold
		for j, lb := range vb {
			if used[j] {
				continue
			}
			if s := LiteralSimilarity(la, lb); s >= bestSim {
				best, bestSim = j, s
				if s == 1 {
					break
				}
			}
		}
		if best >= 0 {
			used[best] = true
			matched++
		}
	}
	union := len(va) + len(vb) - matched
	if union == 0 {
		return 0
	}
	return float64(matched) / float64(union)
}
