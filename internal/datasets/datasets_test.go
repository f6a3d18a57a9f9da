package datasets

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func TestAllDatasetsGenerate(t *testing.T) {
	for _, ds := range All(1) {
		if ds.K1.NumEntities() == 0 || ds.K2.NumEntities() == 0 {
			t.Errorf("%s: empty KB", ds.Name)
		}
		if ds.Gold.Size() == 0 {
			t.Errorf("%s: empty gold standard", ds.Name)
		}
		// Every gold match must reference valid entities.
		for _, m := range ds.Gold.Matches() {
			if int(m.U1) >= ds.K1.NumEntities() || int(m.U2) >= ds.K2.NumEntities() {
				t.Fatalf("%s: gold match %v out of range", ds.Name, m)
			}
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a := IIMB(7)
	b := IIMB(7)
	if a.K1.NumEntities() != b.K1.NumEntities() ||
		a.K1.Stats().AttrTriples != b.K1.Stats().AttrTriples ||
		a.K2.Stats().RelTriples != b.K2.Stats().RelTriples ||
		a.Gold.Size() != b.Gold.Size() {
		t.Error("same seed produced different IIMB datasets")
	}
	c := IIMB(8)
	if a.K2.Stats().AttrTriples == c.K2.Stats().AttrTriples && a.K2.Stats().RelTriples == c.K2.Stats().RelTriples {
		t.Error("different seeds produced identical perturbations (suspicious)")
	}
}

func TestIIMBProfile(t *testing.T) {
	ds := IIMB(1)
	if got := ds.Gold.Size(); got != 363 {
		// 25 + 60 + 120 + 158 = 363 matched pairs (the original has 365).
		t.Errorf("IIMB gold size = %d, want 363", got)
	}
	if ds.K1.NumAttrs() != 12 || ds.K2.NumAttrs() != 12 {
		t.Errorf("IIMB attrs = %d/%d, want 12/12", ds.K1.NumAttrs(), ds.K2.NumAttrs())
	}
	if ds.K1.NumRels() != 15 || ds.K2.NumRels() != 15 {
		t.Errorf("IIMB rels = %d/%d, want 15/15", ds.K1.NumRels(), ds.K2.NumRels())
	}
	assertIsolatedFraction(t, ds, 0.0, 0.05)
}

func TestDBLPACMProfile(t *testing.T) {
	ds := DBLPACM(1)
	if ds.K1.NumAttrs() != 3 || ds.K2.NumAttrs() != 3 {
		t.Errorf("D-A attrs = %d/%d, want 3/3", ds.K1.NumAttrs(), ds.K2.NumAttrs())
	}
	if ds.K1.NumRels() != 1 || ds.K2.NumRels() != 1 {
		t.Errorf("D-A rels = %d/%d, want 1/1", ds.K1.NumRels(), ds.K2.NumRels())
	}
	// K2 is several times larger than K1.
	if ds.K2.NumEntities() < 2*ds.K1.NumEntities() {
		t.Errorf("ACM side should dwarf DBLP side: %d vs %d",
			ds.K2.NumEntities(), ds.K1.NumEntities())
	}
	assertIsolatedFraction(t, ds, 0.0, 0.35)
}

func TestIMDBYAGOProfile(t *testing.T) {
	ds := IMDBYAGO(1)
	if len(ds.AttrGold) != 4 {
		t.Errorf("I-Y attribute gold = %d, want 4", len(ds.AttrGold))
	}
	// YAGO side has far more attributes than correspond.
	if ds.K2.NumAttrs() <= ds.K1.NumAttrs() {
		t.Errorf("YAGO attrs (%d) should exceed IMDB attrs (%d)",
			ds.K2.NumAttrs(), ds.K1.NumAttrs())
	}
	assertIsolatedFraction(t, ds, 0.12, 0.45)
}

func TestDBpediaYAGOProfile(t *testing.T) {
	ds := DBpediaYAGO(1)
	if len(ds.AttrGold) != 19 {
		t.Errorf("D-Y attribute gold = %d, want 19", len(ds.AttrGold))
	}
	if ds.K1.NumAttrs() != 40 {
		t.Errorf("D-Y K1 attrs = %d, want 40", ds.K1.NumAttrs())
	}
	// Missing labels: some matched K2 entities must be unlabeled.
	unlabeled := 0
	for _, m := range ds.Gold.Matches() {
		if ds.K2.Label(m.U2) == "" {
			unlabeled++
		}
	}
	frac := float64(unlabeled) / float64(ds.Gold.Size())
	if frac < 0.03 || frac > 0.16 {
		t.Errorf("unlabeled matched fraction = %v, want ≈ 0.084", frac)
	}
	assertIsolatedFraction(t, ds, 0.45, 0.8)
}

// assertIsolatedFraction checks the share of gold matches with no
// cross-KB relationship structure on at least one side.
func assertIsolatedFraction(t *testing.T, ds *Dataset, lo, hi float64) {
	t.Helper()
	isolated := 0
	bare := func(k *kb.KB, u kb.EntityID) bool { return len(k.OutRels(u))+len(k.InRels(u)) == 0 }
	for _, m := range ds.Gold.Matches() {
		if bare(ds.K1, m.U1) || bare(ds.K2, m.U2) {
			isolated++
		}
	}
	frac := float64(isolated) / float64(ds.Gold.Size())
	if frac < lo || frac > hi {
		t.Errorf("%s: isolated fraction = %v, want in [%v, %v]", ds.Name, frac, lo, hi)
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		ds, err := ByName(n, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if ds == nil || ds.Gold.Size() == 0 {
			t.Errorf("ByName(%q) returned empty dataset", n)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGoldIsOneToOne(t *testing.T) {
	// The generators build 1:1 gold standards (required by the pipeline's
	// competitor resolution).
	for _, ds := range All(3) {
		seen1 := map[kb.EntityID]bool{}
		seen2 := map[kb.EntityID]bool{}
		for _, m := range ds.Gold.Matches() {
			if seen1[m.U1] || seen2[m.U2] {
				t.Fatalf("%s: gold is not 1:1 at %v", ds.Name, m)
			}
			seen1[m.U1] = true
			seen2[m.U2] = true
		}
	}
}

func TestPerturbationKeepsMostLabelsBlockable(t *testing.T) {
	// The blocking threshold is 0.3; most perturbed labels must stay
	// findable or the dataset would be impossible for every method.
	ds := IIMB(2)
	var matches []pair.Pair
	for _, m := range ds.Gold.Matches() {
		matches = append(matches, m)
	}
	blockable := 0
	for _, m := range matches {
		if ds.K1.Label(m.U1) != "" && ds.K2.Label(m.U2) != "" {
			blockable++
		}
	}
	if float64(blockable)/float64(len(matches)) < 0.95 {
		t.Errorf("too many unlabeled IIMB matches")
	}
}
