// Package strsim provides the string normalization and similarity measures
// used throughout the Remp pipeline: label tokenization with stemming, the
// Jaccard coefficient on token sets, numeric and date similarity by maximum
// percentage difference, and the extended Jaccard measure simL over sets of
// literals (Naumann & Herschel, "An Introduction to Duplicate Detection").
//
// All functions are pure and safe for concurrent use.
package strsim

import (
	"strconv"
	"strings"
	"unicode"
)

// Normalize lowercases s, replaces punctuation with spaces and collapses
// runs of whitespace. It is the first step of label preprocessing described
// in §IV-B of the paper.
func Normalize(s string) string {
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

// Tokenize normalizes s and splits it into tokens, applying light stemming
// to each token. The result preserves token order and may contain
// duplicates; use TokenSet for the deduplicated form.
func Tokenize(s string) []string {
	norm := Normalize(s)
	if norm == "" {
		return nil
	}
	fields := strings.Fields(norm)
	out := fields[:0]
	for _, f := range fields {
		if t := Stem(f); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// TokenSet returns the deduplicated, sorted token set of s.
func TokenSet(s string) []string {
	toks := Tokenize(s)
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

// Stem applies a small suffix-stripping stemmer (a compact subset of
// Porter's rules sufficient for blocking): plural -s/-es/-ies, -ing, -ed.
// Tokens shorter than four runes are returned unchanged.
func Stem(token string) string {
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
type LiteralKind int

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
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return KindNumber
	}
	if _, ok := parseDate(s); ok {
		return KindDate
	}
	return KindString
}

// parseDate accepts YYYY-MM-DD, YYYY/MM/DD and YYYY, returning days since
// year 0 on success (a monotone encoding good enough for similarity).
func parseDate(s string) (float64, bool) {
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
