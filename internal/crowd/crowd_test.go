package crowd

import (
	"math"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func TestInferUnanimousMatch(t *testing.T) {
	labels := []Label{
		{WorkerID: 0, Quality: 0.95, IsMatch: true},
		{WorkerID: 1, Quality: 0.95, IsMatch: true},
		{WorkerID: 2, Quality: 0.95, IsMatch: true},
	}
	inf := Infer(0.5, labels, DefaultThresholds())
	if inf.Verdict != IsMatch {
		t.Errorf("verdict = %v, want IsMatch (posterior %v)", inf.Verdict, inf.Posterior)
	}
	if inf.Posterior < 0.99 {
		t.Errorf("posterior = %v, want near 1", inf.Posterior)
	}
}

func TestInferUnanimousNonMatch(t *testing.T) {
	labels := []Label{
		{WorkerID: 0, Quality: 0.95, IsMatch: false},
		{WorkerID: 1, Quality: 0.95, IsMatch: false},
	}
	inf := Infer(0.5, labels, DefaultThresholds())
	if inf.Verdict != IsNonMatch {
		t.Errorf("verdict = %v, want IsNonMatch (posterior %v)", inf.Verdict, inf.Posterior)
	}
}

func TestInferConflictingLabelsUnresolved(t *testing.T) {
	labels := []Label{
		{WorkerID: 0, Quality: 0.95, IsMatch: true},
		{WorkerID: 1, Quality: 0.95, IsMatch: false},
	}
	inf := Infer(0.5, labels, DefaultThresholds())
	if inf.Verdict != Unresolved {
		t.Errorf("verdict = %v, want Unresolved (posterior %v)", inf.Verdict, inf.Posterior)
	}
	if math.Abs(inf.Posterior-0.5) > 1e-9 {
		t.Errorf("symmetric conflict should stay at prior: %v", inf.Posterior)
	}
}

func TestInferEquation17Exact(t *testing.T) {
	// One worker with λ=0.9 saying match, prior 0.5:
	// post = 0.5 / (0.5 + 0.5·(0.1/0.9)) = 0.9.
	labels := []Label{{Quality: 0.9, IsMatch: true}}
	inf := Infer(0.5, labels, DefaultThresholds())
	if math.Abs(inf.Posterior-0.9) > 1e-9 {
		t.Errorf("posterior = %v, want 0.9", inf.Posterior)
	}
}

func TestInferPriorMatters(t *testing.T) {
	labels := []Label{{Quality: 0.8, IsMatch: true}}
	low := Infer(0.1, labels, DefaultThresholds())
	high := Infer(0.9, labels, DefaultThresholds())
	if low.Posterior >= high.Posterior {
		t.Errorf("prior ignored: %v vs %v", low.Posterior, high.Posterior)
	}
}

func TestInferChanceWorkerCarriesNoSignal(t *testing.T) {
	labels := []Label{{Quality: 0.5, IsMatch: true}}
	inf := Infer(0.5, labels, DefaultThresholds())
	if math.Abs(inf.Posterior-0.5) > 0.05 {
		t.Errorf("50%% worker moved posterior to %v", inf.Posterior)
	}
}

// TestInferPosteriorEdgeCases is the table-driven sweep over the Eq.
// (17) corners: λ→1 workers in conflict, all-abstain answers, the
// clamped priors, worse-than-chance workers, and the exact accept /
// reject threshold boundaries that decide whether a question lands in
// the hard-question band (whose priors core damps) or resolves.
func TestInferPosteriorEdgeCases(t *testing.T) {
	th := DefaultThresholds()
	lbl := func(lam float64, match bool) Label {
		return Label{Quality: lam, IsMatch: match}
	}
	cases := []struct {
		name   string
		prior  float64
		labels []Label
		// wantPost < 0 skips the posterior check (verdict only).
		wantPost float64
		verdict  Verdict
	}{
		// Two λ→1 workers in conflict: both clamp to 0.999, their odds
		// ratios cancel exactly and the posterior stays at the prior —
		// a hard question, not a coin flip decided by float noise.
		{"lambda-to-one-conflict", 0.5, []Label{lbl(1, true), lbl(1, false)}, 0.5, Unresolved},
		{"lambda-above-one-conflict", 0.5, []Label{lbl(1.7, true), lbl(1, false)}, 0.5, Unresolved},
		// Perfect workers alone are decisive even against a skeptical prior.
		{"lambda-to-one-unanimous", 0.3, []Label{lbl(1, true), lbl(1, true)}, -1, IsMatch},
		// All workers abstained (no labels): the posterior is exactly the
		// prior, so the verdict is whatever band the prior already sits in.
		{"all-abstain-neutral-prior", 0.5, nil, 0.5, Unresolved},
		{"all-abstain-confident-prior", 0.9, nil, 0.9, IsMatch},
		{"all-abstain-dismissive-prior", 0.1, nil, 0.1, IsNonMatch},
		// Prior clamping: degenerate priors are pulled into (0,1) before
		// the odds form, so empty evidence still yields a sane posterior.
		{"prior-zero-clamped", 0, nil, 0.01, IsNonMatch},
		{"prior-one-clamped", 1, nil, 0.99, IsMatch},
		// A worker at or below chance is clamped to 0.51: almost no
		// signal, the posterior barely moves off the prior.
		{"chance-worker-clamped", 0.5, []Label{lbl(0.5, true)}, -1, Unresolved},
		{"worse-than-chance-clamped", 0.5, []Label{lbl(0.2, false)}, -1, Unresolved},
		// Accept boundary: one λ=0.8 match label at prior 0.5 gives
		// post = 0.5/(0.5+0.5·0.25) = 0.8 exactly — on the boundary the
		// question resolves (≥), it is not damped as hard.
		{"accept-boundary-exact", 0.5, []Label{lbl(0.8, true)}, 0.8, IsMatch},
		// Just inside the band: λ=0.79 keeps the posterior below 0.8, so
		// the question stays hard.
		{"accept-boundary-inside", 0.5, []Label{lbl(0.79, true)}, -1, Unresolved},
		// Reject boundary, mirrored: one λ=0.8 non-match label gives
		// post = 0.2 exactly — resolved non-match (≤).
		{"reject-boundary-exact", 0.5, []Label{lbl(0.8, false)}, 0.2, IsNonMatch},
		{"reject-boundary-inside", 0.5, []Label{lbl(0.79, false)}, -1, Unresolved},
		// Majorities with equal λ reduce to the surplus label.
		{"majority-two-vs-one", 0.5, []Label{lbl(0.8, true), lbl(0.8, true), lbl(0.8, false)}, 0.8, IsMatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inf := Infer(tc.prior, tc.labels, th)
			if inf.Verdict != tc.verdict {
				t.Errorf("verdict = %v, want %v (posterior %v)", inf.Verdict, tc.verdict, inf.Posterior)
			}
			if tc.wantPost >= 0 && math.Abs(inf.Posterior-tc.wantPost) > 1e-9 {
				t.Errorf("posterior = %v, want %v", inf.Posterior, tc.wantPost)
			}
			if inf.Posterior < 0 || inf.Posterior > 1 || math.IsNaN(inf.Posterior) {
				t.Errorf("posterior %v outside [0,1]", inf.Posterior)
			}
		})
	}
}

func TestPlatformAccurateWorkers(t *testing.T) {
	gold := pair.NewGold([]pair.Pair{{U1: 1, U2: 1}, {U1: 2, U2: 2}})
	pl := NewPlatform(gold.IsMatch, Config{
		NumWorkers: 20, WorkersPerQuestion: 5, ErrorRate: 0.02, Seed: 7,
	})
	right := 0
	total := 0
	for _, q := range []pair.Pair{{U1: 1, U2: 1}, {U1: 2, U2: 2}, {U1: 1, U2: 2}, {U1: 2, U2: 1}} {
		labels := pl.Ask(q)
		if len(labels) != 5 {
			t.Fatalf("got %d labels, want 5", len(labels))
		}
		inf := Infer(0.5, labels, DefaultThresholds())
		want := IsNonMatch
		if gold.IsMatch(q) {
			want = IsMatch
		}
		total++
		if inf.Verdict == want {
			right++
		}
	}
	if right != total {
		t.Errorf("accurate workers resolved %d/%d", right, total)
	}
	if pl.NumQuestions() != 4 {
		t.Errorf("NumQuestions = %d, want 4", pl.NumQuestions())
	}
}

func TestPlatformCachesRepeatedQuestions(t *testing.T) {
	gold := pair.NewGold([]pair.Pair{{U1: 1, U2: 1}})
	pl := NewPlatform(gold.IsMatch, Config{Seed: 1})
	q := pair.Pair{U1: 1, U2: 1}
	l1 := pl.Ask(q)
	l2 := pl.Ask(q)
	if pl.NumQuestions() != 1 {
		t.Errorf("repeat question counted: %d", pl.NumQuestions())
	}
	if len(l1) != len(l2) {
		t.Fatal("cache returned different labels")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Error("cache returned different labels")
		}
	}
}

func TestPlatformErrorRateRealized(t *testing.T) {
	// With error rate 0.25 a single worker should be wrong ≈ 25% of the
	// time over many fresh questions.
	gold := pair.NewGold(nil) // everything is a non-match
	pl := NewPlatform(gold.IsMatch, Config{
		NumWorkers: 10, WorkersPerQuestion: 1, ErrorRate: 0.25, Seed: 3,
	})
	wrong := 0
	const n = 2000
	for i := 0; i < n; i++ {
		labels := pl.Ask(pair.Pair{U1: 0, U2: int32ID(i)})
		if labels[0].IsMatch { // truth is non-match
			wrong++
		}
	}
	rate := float64(wrong) / n
	if math.Abs(rate-0.25) > 0.03 {
		t.Errorf("observed error rate %v, want ≈ 0.25", rate)
	}
}

func TestPlatformDeterministicWithSeed(t *testing.T) {
	gold := pair.NewGold([]pair.Pair{{U1: 1, U2: 1}})
	mk := func() []Label {
		pl := NewPlatform(gold.IsMatch, Config{NumWorkers: 10, WorkersPerQuestion: 3, ErrorRate: 0.2, Seed: 42})
		return pl.Ask(pair.Pair{U1: 1, U2: 1})
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func int32ID(i int) kb.EntityID { return kb.EntityID(i) }
