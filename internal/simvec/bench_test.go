package simvec

import (
	"math/rand"
	"testing"
)

// BenchmarkKeep times Algorithm 1 as Prepare runs it — NewPruner, then
// Keep at the default k = 4 — on d-y's real candidates (thousands of
// pairs over a few dozen distinct vectors) and on its worst case, one
// block of 2 000 pairs whose ten-component vectors are all distinct, so
// no two are merged and nearly none dominates another.
func BenchmarkKeep(b *testing.B) {
	dyPairs, dyVecs := dyCandidates(b)
	distPairs, distVecs := distinctBlock(rand.New(rand.NewSource(3)), 2000, 10)
	for _, bc := range []struct {
		name string
		run  func() []int32
	}{
		{"d-y", func() []int32 { return NewPruner(dyPairs, dyVecs).Keep(dyPairs, 4) }},
		{"distinct-2000", func() []int32 { return NewPruner(distPairs, distVecs).Keep(distPairs, 4) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(bc.run()) == 0 {
					b.Fatal("Keep kept nothing")
				}
			}
		})
	}
}
