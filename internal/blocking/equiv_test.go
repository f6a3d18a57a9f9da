package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kb"
)

// wideRunner runs every task on its own goroutine, maximizing interleaving
// so the equivalence tests double as race tests under -race.
type wideRunner struct{}

func (wideRunner) ForEach(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// hostileTokens exercises normalization edge cases: unicode casing,
// combining marks, CJK, punctuation runs, stemming suffixes, digits and
// date-shaped tokens.
var hostileTokens = []string{
	"joan", "crawford", "new", "york", "city", "champions",
	"cities", "running", "matched", "glasses", "focus",
	"ÉTÉ", "café", "Ångström", "北京", "東京都", "naïve",
	"O'Neill", "rock-n-roll", "a", "I", "x1",
	"1999", "2001-05-03", "3.14", "-42",
	"ligature­soft", "éclair", "🦀", "½",
	"supercalifragilisticexpialidocious",
}

// randLabel builds a label of 0–5 tokens joined by hostile separators.
func randLabel(r *rand.Rand) string {
	n := r.Intn(6)
	if n == 0 {
		return ""
	}
	seps := []string{" ", "  ", ", ", " - ", "\t", "/"}
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += seps[r.Intn(len(seps))]
		}
		out += hostileTokens[r.Intn(len(hostileTokens))]
	}
	return out
}

func randLabeledKB(r *rand.Rand, name string, n int) *kb.KB {
	k := kb.New(name)
	for i := 0; i < n; i++ {
		id := k.AddEntity(fmt.Sprintf("%s:e%d", name, i))
		k.SetLabel(id, randLabel(r))
	}
	return k
}

// TestGenerateMatchesNaive is the property test anchoring the indexed
// path: on randomized KBs with hostile labels, Generate and GenerateNaive
// must return byte-identical results — same candidates, same float
// priors, same initial matches — serial and parallel.
func TestGenerateMatchesNaive(t *testing.T) {
	sizes := []struct{ n1, n2 int }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {5, 7}, {40, 40}, {150, 90},
	}
	optVariants := []Options{
		{},
		{Threshold: 0.3},
		{Threshold: 0.5},
		{Threshold: 1},
	}
	for si, sz := range sizes {
		for oi, base := range optVariants {
			for seed := int64(0); seed < 3; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(si*10+oi)))
				k1 := randLabeledKB(r, "k1", sz.n1)
				k2 := randLabeledKB(r, "k2", sz.n2)
				want := GenerateNaive(k1, k2, base)

				serial := base
				got := Generate(k1, k2, serial)
				assertSameResult(t, fmt.Sprintf("serial size=%v opts=%d seed=%d", sz, oi, seed), want, got)

				par := base
				par.Runner = wideRunner{}
				got = Generate(k1, k2, par)
				assertSameResult(t, fmt.Sprintf("parallel size=%v opts=%d seed=%d", sz, oi, seed), want, got)
			}
		}
	}
}

func assertSameResult(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Candidates, got.Candidates) {
		t.Fatalf("%s: candidates diverge\nnaive:   %v\nindexed: %v", ctx, want.Candidates, got.Candidates)
	}
	if !reflect.DeepEqual(want.Initial, got.Initial) {
		t.Fatalf("%s: initial matches diverge\nnaive:   %v\nindexed: %v", ctx, want.Initial, got.Initial)
	}
	if !reflect.DeepEqual(want.Priors, got.Priors) {
		t.Fatalf("%s: priors diverge", ctx)
	}
}
