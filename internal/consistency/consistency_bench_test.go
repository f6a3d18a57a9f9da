package consistency

import (
	"math/rand"
	"testing"
)

// BenchmarkFit measures one Fit over the observation lists a loop's refit
// sees: Scale's ≈ 700 rows over two distinct observations (nearly all
// (1, 1, 1)), and Clustered's ≈ 600 rows over 11 — mostly small sets plus
// a few large ones whose L scan is long.
func BenchmarkFit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rows  int
		kinds []Observation
		share []int // relative frequency of each kind
	}{
		{"scale", 704, []Observation{{1, 1, 1}, {1, 1, 0}}, []int{95, 5}},
		{"clustered", 600, []Observation{
			{1, 1, 1}, {2, 2, 2}, {1, 0, 0}, {2, 1, 1}, {1, 1, 0}, {2, 2, 1},
			{2, 1, 0}, {60, 54, 54}, {93, 80, 80}, {48, 38, 38}, {117, 102, 102},
		}, []int{700, 170, 33, 28, 18, 15, 3, 1, 1, 1, 1}},
	} {
		rng := rand.New(rand.NewSource(1))
		total := 0
		for _, s := range bc.share {
			total += s
		}
		obs := make([]Observation, bc.rows)
		for i := range obs {
			r := rng.Intn(total)
			k := 0
			for r >= bc.share[k] {
				r -= bc.share[k]
				k++
			}
			obs[i] = bc.kinds[k]
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Fit(obs, DefaultOptions())
			}
		})
	}
}
