package blocking

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
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

// randLabel builds a label of 0–45 tokens joined by hostile separators.
// Long labels meet with prefixes of more than maxPairs token pairs, which
// joins them on single tokens.
func randLabel(r *rand.Rand) string {
	n := r.Intn(46)
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

var optVariants = []Options{
	{},
	{Threshold: 0.25},
	{Threshold: 0.3},
	{Threshold: 0.5},
	{Threshold: 1},
}

// TestGenerateMatchesNaive is the property test anchoring the indexed
// path: on randomized KBs with hostile labels, Generate and GenerateNaive
// must return byte-identical results — same candidates, same float
// priors, same initial matches — serial and parallel; then the same on
// the hand-built cases of countingKBs.
func TestGenerateMatchesNaive(t *testing.T) {
	sizes := []struct{ n1, n2 int }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {5, 7}, {40, 40}, {150, 90},
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
	checkCountingCases(t)
}

// countingKBs builds the label shapes a counting join could get wrong:
// repeated tokens (set semantics), strict subset and superset labels,
// pairs sitting exactly on a threshold, K2 entities with empty labels
// between non-empty ones, and one label with more distinct tokens than a
// uint16 counts. Every token is under four runes or ends in a digit, so
// stemming leaves it alone.
func countingKBs() (k1, k2 *kb.KB) {
	var wide strings.Builder
	for i := 0; i < math.MaxUint16+5000; i++ {
		fmt.Fprintf(&wide, "w%05d ", i)
	}
	fill := func(name string, labels ...string) *kb.KB {
		k := kb.New(name)
		for i, l := range labels {
			k.SetLabel(k.AddEntity(fmt.Sprintf("%s:e%d", name, i)), l)
		}
		return k
	}
	k1 = fill("k1",
		"aa aa bb",          // 0: {aa, bb}
		"cc dd ee",          // 1
		"f1 f2 f3 f4 f5 f6", // 2
		"gg hh ii",          // 3
		"jj kk",             // 4
		wide.String(),       // 5
		"",                  // 6
	)
	k2 = fill("k2",
		"bb aa bb aa",          // 0: the set of k1:0, not its label
		"",                     // 1
		"cc xx",                // 2: 1 of 4 with k1:1
		"",                     // 3
		"f1 f2 f3 y1 y2 y3 y4", // 4: 3 of 10 with k1:2
		"gg hh zz",             // 5: 2 of 4 with k1:3
		"jj",                   // 6: strict subset of k1:4
		"jj kk ll",             // 7: strict superset of k1:4
		"",                     // 8
		wide.String(),          // 9: equals k1:5
	)
	return k1, k2
}

// checkCountingCases holds Generate to GenerateNaive on countingKBs —
// serial, and parallel in grains of one or two entities — and checks
// that the pairs sitting exactly on a threshold are kept with the exact
// quotient.
func checkCountingCases(t *testing.T) {
	defer func(n int) { grainFloor = n }(grainFloor)
	grainFloor = 1

	k1, k2 := countingKBs()
	atThreshold := map[float64]*Result{}
	for oi, base := range optVariants {
		want := GenerateNaive(k1, k2, base)
		got := Generate(k1, k2, base)
		assertSameResult(t, fmt.Sprintf("serial opts=%d", oi), want, got)
		atThreshold[base.Threshold] = got
		par := base
		par.Runner = wideRunner{}
		assertSameResult(t, fmt.Sprintf("parallel opts=%d", oi), want, Generate(k1, k2, par))
	}

	onThreshold := []struct {
		p pair.Pair
		t float64
	}{
		{pair.Pair{U1: 1, U2: 2}, 0.25},
		{pair.Pair{U1: 2, U2: 4}, 0.3},
		{pair.Pair{U1: 3, U2: 5}, 0.5},
		{pair.Pair{U1: 4, U2: 6}, 0.5},
		{pair.Pair{U1: 0, U2: 0}, 1},
		{pair.Pair{U1: 5, U2: 9}, 1},
	}
	for _, c := range onThreshold {
		if got, ok := atThreshold[c.t].Priors[c.p]; !ok || got != c.t {
			t.Errorf("pair %v at threshold %v: prior = %v (kept = %v), want it kept at exactly the threshold", c.p, c.t, got, ok)
		}
	}
	if got, want := atThreshold[1].Initial, []pair.Pair{{U1: 5, U2: 9}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Initial = %v, want %v: equal token sets are not equal labels", got, want)
	}
}

// TestCountKernelDoesNotAllocate: once its scratch buffers have grown,
// the probe kernel — counting scan, signature probes and verification —
// runs allocation-free.
func TestCountKernelDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	k1 := randLabeledKB(r, "k1", 200)
	k2 := randLabeledKB(r, "k2", 200)
	j := newJoin(k1, k2, 0.3, nil, nil)
	if slices.Max(j.scanY) == 0 || slices.Max(j.pre1[1]) == 0 || slices.Max(j.pre1[2]) == 0 {
		t.Fatal("the labels do not exercise the scan and both signature kinds")
	}
	sc := &scratch{count: make([]int32, k2.NumEntities())}
	pass := func() {
		sc.cands = sc.cands[:0]
		for u1 := 0; u1 < k1.NumEntities(); u1++ {
			j.probe(sc, kb.EntityID(u1))
		}
	}
	pass() // warm-up
	if len(sc.cands) == 0 {
		t.Fatal("the pass emitted no candidates")
	}
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("probe kernel allocates %v times per pass, want 0", allocs)
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

// fuzzThresholds are the thresholds a fuzz byte names first: the α
// boundaries, where a quotient o/(|x|+|y|−o) lands exactly on t, then NaN
// and 0, which mean the default. Any other byte b means b/200, up to
// above 1.
var fuzzThresholds = []float64{0.25, 1.0 / 3, 0.5, 2.0 / 3, 1, math.NaN(), 0}

// FuzzGenerateMatchesNaive holds the exactness contract on arbitrary
// labels: the input's lines are labels, those before the first empty
// line K1's and the rest K2's, and th picks the threshold. Generate,
// serial and parallel, must equal GenerateNaive.
func FuzzGenerateMatchesNaive(f *testing.F) {
	b := byte(0)
	f.Add("joan crawford\nnew york city\n\njoan crawford\nnew york", b)
	for ti := range fuzzThresholds {
		b = byte(ti)
		f.Add(strings.Join(hostileTokens[:12], " ")+"\n"+strings.Join(hostileTokens[6:], " ")+"\n\n"+strings.Join(hostileTokens, ", "), b)
		f.Add("aa aa bb\ncc dd ee\nf1 f2 f3 f4 f5 f6\ngg hh ii\njj kk\n\nbb aa bb aa\n\ncc xx\nf1 f2 f3 y1 y2 y3 y4\ngg hh zz\njj\njj kk ll", b)
		f.Add("a b c\na b\nd e f g h i j k l m n o p\n\na b c\na\nb c d\nd e f g h i j k l m n o p q", b)
	}
	f.Add("x1 x2 x3\n\nx1 x2 x3 x4 x5 x6 x7 x8 x9 x10", byte(60))
	f.Fuzz(func(t *testing.T, labels string, th byte) {
		if len(labels) > 4096 {
			return
		}
		opts := Options{Threshold: float64(th) / 200}
		if int(th) < len(fuzzThresholds) {
			opts.Threshold = fuzzThresholds[th]
		}
		side1, side2, _ := strings.Cut(labels, "\n\n")
		fill := func(name, text string) *kb.KB {
			k := kb.New(name)
			for i, l := range strings.Split(text, "\n") {
				k.SetLabel(k.AddEntity(fmt.Sprintf("%s:e%d", name, i)), l)
			}
			return k
		}
		k1, k2 := fill("k1", side1), fill("k2", side2)
		want := GenerateNaive(k1, k2, opts)
		assertSameResult(t, "serial", want, Generate(k1, k2, opts))
		opts.Runner = wideRunner{}
		assertSameResult(t, "parallel", want, Generate(k1, k2, opts))
	})
}
