package strsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks anchoring the dense-ID fast paths against the retained
// string implementations.

func benchValues(n int) []string {
	rng := rand.New(rand.NewSource(7))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s %s item%d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(n/2+1))
	}
	return vals
}

func BenchmarkSimLStrings(b *testing.B) {
	va, vb := benchValues(8), benchValues(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimL(va, vb, 0.5)
	}
}

func BenchmarkSimLCorpus(b *testing.B) {
	k1, k2 := valueKB(benchValues(8)), valueKB(benchValues(8))
	c := NewCorpus(k1, k2, nil)
	ia, ib := k1.AttrLits(0, 0), k2.AttrLits(0, 0)
	c.Add(0, ia)
	c.Add(1, ib)
	c.Load(nil)
	var sc MatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SimL(ia, ib, 0.5, &sc)
	}
}

func BenchmarkJaccardStrings(b *testing.B) {
	va := TokenSet("the quick brown fox jumps over the lazy dog")
	vb := TokenSet("the quick brown cat sleeps under the lazy dog")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(va, vb)
	}
}

func BenchmarkJaccardIDs(b *testing.B) {
	var in Interner
	start, ids := in.Sets(nil, nil, 2, func(i int) string {
		return []string{"the quick brown fox jumps over the lazy dog", "the quick brown cat sleeps under the lazy dog"}[i]
	})
	ia, ib := ids[start[0]:start[1]], ids[start[1]:start[2]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardIDs(ia, ib)
	}
}
