package blocking

import (
	"math"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/strsim"
)

// DefaultOptions mirrors the paper's setup (threshold 0.3).
func DefaultOptions() Options {
	return Options{Threshold: 0.3}
}

func twoKBs() (*kb.KB, *kb.KB) {
	k1 := kb.New("yago")
	k2 := kb.New("dbpedia")

	add := func(k *kb.KB, name, label string) kb.EntityID {
		id := k.AddEntity(name)
		k.SetLabel(id, label)
		return id
	}
	add(k1, "y:Joan", "Joan Crawford")
	add(k1, "y:NYC", "New York City")
	add(k1, "y:Cradle", "Cradle of Champions")
	add(k2, "d:Joan", "Joan Crawford")
	add(k2, "d:NYC", "New York")
	add(k2, "d:Cradle", "The Cradle of Champions")
	add(k2, "d:Zurich", "Zurich")
	return k1, k2
}

func TestGenerateFindsExpectedPairs(t *testing.T) {
	k1, k2 := twoKBs()
	res := Generate(k1, k2, DefaultOptions())
	set := pair.NewSet()
	for _, c := range res.Candidates {
		set.Add(c.Pair)
	}

	joan := pair.Pair{U1: k1.Entity("y:Joan"), U2: k2.Entity("d:Joan")}
	nyc := pair.Pair{U1: k1.Entity("y:NYC"), U2: k2.Entity("d:NYC")}
	cradle := pair.Pair{U1: k1.Entity("y:Cradle"), U2: k2.Entity("d:Cradle")}
	for _, p := range []pair.Pair{joan, nyc, cradle} {
		if !set.Has(p) {
			t.Errorf("expected candidate %v missing", p)
		}
	}
	// Zurich shares no token with anything in K1.
	for _, c := range res.Candidates {
		if c.Pair.U2 == k2.Entity("d:Zurich") {
			t.Errorf("Zurich should not be a candidate: %v", c)
		}
	}
}

func TestPriorsAreLabelJaccard(t *testing.T) {
	k1, k2 := twoKBs()
	res := Generate(k1, k2, DefaultOptions())
	joan := pair.Pair{U1: k1.Entity("y:Joan"), U2: k2.Entity("d:Joan")}
	if got := res.Priors[joan]; got != 1 {
		t.Errorf("identical labels: prior = %v, want 1", got)
	}
	nyc := pair.Pair{U1: k1.Entity("y:NYC"), U2: k2.Entity("d:NYC")}
	want := strsim.Jaccard(strsim.TokenSet("New York City"), strsim.TokenSet("New York"))
	if got := res.Priors[nyc]; math.Abs(got-want) > 1e-12 {
		t.Errorf("NYC prior = %v, want %v", got, want)
	}
}

func TestInitialMatchesAreExactLabels(t *testing.T) {
	k1, k2 := twoKBs()
	res := Generate(k1, k2, DefaultOptions())
	if len(res.Initial) != 1 {
		t.Fatalf("Initial = %v, want exactly the Joan pair", res.Initial)
	}
	joan := pair.Pair{U1: k1.Entity("y:Joan"), U2: k2.Entity("d:Joan")}
	if res.Initial[0] != joan {
		t.Errorf("Initial[0] = %v, want %v", res.Initial[0], joan)
	}
}

func TestThresholdPrunes(t *testing.T) {
	k1, k2 := twoKBs()
	strict := Generate(k1, k2, Options{Threshold: 0.95})
	for _, c := range strict.Candidates {
		if c.Prior < 0.95 {
			t.Errorf("candidate below threshold survived: %+v", c)
		}
	}
	loose := Generate(k1, k2, Options{Threshold: 0.05})
	if len(loose.Candidates) < len(strict.Candidates) {
		t.Errorf("loose threshold produced fewer candidates (%d < %d)",
			len(loose.Candidates), len(strict.Candidates))
	}
	// A NaN threshold means the default, in both implementations.
	nan := Options{Threshold: math.NaN()}
	assertSameResult(t, "NaN threshold", Generate(k1, k2, DefaultOptions()), Generate(k1, k2, nan))
	assertSameResult(t, "NaN threshold, naive", GenerateNaive(k1, k2, DefaultOptions()), GenerateNaive(k1, k2, nan))
}

func TestEmptyLabelsNeverBlock(t *testing.T) {
	k1 := kb.New("a")
	k2 := kb.New("b")
	u1 := k1.AddEntity("e1")
	k1.SetLabel(u1, "")
	u2 := k2.AddEntity("e2")
	k2.SetLabel(u2, "")
	res := Generate(k1, k2, DefaultOptions())
	if len(res.Candidates) != 0 {
		t.Errorf("unlabeled entities blocked together: %v", res.Candidates)
	}
}

func TestDeterministicOrder(t *testing.T) {
	k1, k2 := twoKBs()
	a := Generate(k1, k2, DefaultOptions())
	b := Generate(k1, k2, DefaultOptions())
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatal("candidate counts differ between runs")
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			t.Fatalf("ordering not deterministic at %d: %v vs %v", i, a.Candidates[i], b.Candidates[i])
		}
	}
}
