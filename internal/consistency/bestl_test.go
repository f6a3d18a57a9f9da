package consistency

import (
	"math"
	"math/rand"
	"testing"
)

// fullScanL is bestL without the early stop: every admissible L scored,
// the first maximum kept. Each log C(n, k) is logChoose's t[n] − t[k] −
// t[n−k] over the table t, read here without logChoose's atomic loads.
func fullScanL(t []float64, o Observation, logOdds float64) int {
	lm := min(o.N1, o.N2)
	lo := 0
	if o.KnownL > 0 {
		lo = min(o.KnownL, lm)
	}
	bestL, bestV := lo, math.Inf(-1)
	for l := lo; l <= lm; l++ {
		v := (t[o.N1] - t[l] - t[o.N1-l]) + (t[o.N2] - t[l] - t[o.N2-l]) + float64(l)*logOdds
		if v > bestV {
			bestV, bestL = v, l
		}
	}
	return bestL
}

// fitRates are the ε values a fit's logOdds come from: the clamps, the
// starts and the middle.
var fitRates = []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95}

// tieLogOdds returns the logOdds at which v(l) and v(l+1) are equal in
// exact arithmetic, moved by a few ulps either way.
func tieLogOdds(rng *rand.Rand, o Observation, l int) float64 {
	x := -(math.Log(float64(o.N1-l)/float64(l+1)) + math.Log(float64(o.N2-l)/float64(l+1)))
	for range rng.Intn(4) {
		x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
	}
	return x
}

// TestBestLMatchesFullScan: the scan that stops past the peak returns the
// full scan's L on a million random observations — sizes up to 5 000,
// known lower bounds up to past min(N1, N2), and logOdds at the fit's
// clamps and starts, at near ties between neighbouring L, and anywhere
// in between.
func TestBestLMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	table := logFacts(5000)
	size := func() int { return int(math.Exp(rng.Float64()*math.Log(5001))) - 1 } // log-uniform in [0, 5000]
	for i := range 1_000_000 {
		o := Observation{N1: size(), N2: size(), KnownL: -1}
		lm := min(o.N1, o.N2)
		if rng.Intn(3) == 0 {
			o.KnownL = rng.Intn(lm + 3)
		}
		var logOdds float64
		switch k := rng.Intn(4); {
		case k == 0:
			e1, e2 := fitRates[rng.Intn(len(fitRates))], fitRates[rng.Intn(len(fitRates))]
			logOdds = math.Log(e1/(1-e1)) + math.Log(e2/(1-e2))
		case k == 1 && lm > 0:
			logOdds = tieLogOdds(rng, o, rng.Intn(lm))
		default:
			logOdds = 16*rng.Float64() - 8
		}
		if got, want := bestL(o, logOdds), fullScanL(table, o, logOdds); got != want {
			t.Fatalf("observation %d %+v, logOdds %v: bestL = %d, full scan %d", i, o, logOdds, got, want)
		}
	}
}
