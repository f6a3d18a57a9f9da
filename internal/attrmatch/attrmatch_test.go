package attrmatch

import (
	"fmt"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

// buildKBs creates two KBs where attribute correspondence is
// name↔title, year↔pubYear, and "venue" has no counterpart.
func buildKBs(n int) (*kb.KB, *kb.KB, []pair.Pair) {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	name := k1.AddAttr("name")
	year := k1.AddAttr("year")
	venue := k1.AddAttr("venue")
	title := k2.AddAttr("title")
	pubYear := k2.AddAttr("pubYear")

	var min []pair.Pair
	for i := 0; i < n; i++ {
		u1 := k1.AddEntity(fmt.Sprintf("e1_%d", i))
		u2 := k2.AddEntity(fmt.Sprintf("e2_%d", i))
		label := fmt.Sprintf("entity number %d", i)
		k1.SetLabel(u1, label)
		k2.SetLabel(u2, label)
		k1.AddAttrTriple(u1, name, label)
		k2.AddAttrTriple(u2, title, label)
		yr := fmt.Sprintf("%d", 1980+i)
		k1.AddAttrTriple(u1, year, yr)
		k2.AddAttrTriple(u2, pubYear, yr)
		k1.AddAttrTriple(u1, venue, fmt.Sprintf("venue %d", i%3))
		min = append(min, pair.Pair{U1: u1, U2: u2})
	}
	return k1, k2, min
}

func TestSimilaritiesShape(t *testing.T) {
	k1, k2, min := buildKBs(10)
	name, title := k1.AddAttr("name"), k2.AddAttr("title")
	year, pubYear := k1.AddAttr("year"), k2.AddAttr("pubYear")
	sims := Similarities(k1, k2, min, DefaultOptions())
	if len(sims) != k1.NumAttrs() || len(sims[0]) != k2.NumAttrs() {
		t.Fatalf("matrix shape %dx%d, want %dx%d", len(sims), len(sims[0]), k1.NumAttrs(), k2.NumAttrs())
	}
	if sims[name][title] != 1 {
		t.Errorf("name↔title similarity = %v, want 1", sims[name][title])
	}
	if sims[year][pubYear] != 1 {
		t.Errorf("year↔pubYear similarity = %v, want 1", sims[year][pubYear])
	}
	// name values ("entity number i") vs years should be low.
	if sims[name][pubYear] > 0.2 {
		t.Errorf("cross similarity too high: %v", sims[name][pubYear])
	}
}

func TestFindMatchesOneToOne(t *testing.T) {
	k1, k2, min := buildKBs(10)
	matches := FindMatches(k1, k2, min, DefaultOptions())
	if len(matches) != 2 {
		t.Fatalf("matches = %v, want exactly name↔title and year↔pubYear", matches)
	}
	seen := map[string]string{}
	for _, m := range matches {
		seen[k1.AttrName(m.A1)] = k2.AttrName(m.A2)
	}
	if seen["name"] != "title" || seen["year"] != "pubYear" {
		t.Errorf("wrong correspondence: %v", seen)
	}
	// venue must stay unmatched under 1:1 (nothing to pair with).
	if _, ok := seen["venue"]; ok {
		t.Error("venue should be unmatched")
	}
}

func TestWithoutOneToOneProducesMore(t *testing.T) {
	// Build a KB where one K1 attribute is similar to two K2 attributes:
	// without the 1:1 constraint both survive (lower precision, Table IV).
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	label1 := k1.AddAttr("label")
	labelA := k2.AddAttr("labelA")
	labelB := k2.AddAttr("labelB")
	var min []pair.Pair
	for i := 0; i < 6; i++ {
		u1 := k1.AddEntity(fmt.Sprintf("a%d", i))
		u2 := k2.AddEntity(fmt.Sprintf("b%d", i))
		v := fmt.Sprintf("shared value %d", i)
		k1.AddAttrTriple(u1, label1, v)
		k2.AddAttrTriple(u2, labelA, v)
		k2.AddAttrTriple(u2, labelB, v)
		min = append(min, pair.Pair{U1: u1, U2: u2})
	}
	opts := DefaultOptions()
	with := FindMatches(k1, k2, min, opts)
	opts.OneToOne = false
	without := FindMatches(k1, k2, min, opts)
	if len(with) != 1 {
		t.Errorf("1:1 matches = %v, want 1", with)
	}
	if len(without) != 2 {
		t.Errorf("unconstrained matches = %v, want 2", without)
	}
}

func TestEmptyInitialMatches(t *testing.T) {
	k1, k2, _ := buildKBs(3)
	matches := FindMatches(k1, k2, nil, DefaultOptions())
	if len(matches) != 0 {
		t.Errorf("no evidence should yield no matches, got %v", matches)
	}
}

func TestRareAttributeNotMatched(t *testing.T) {
	// An attribute that never co-occurs in Min gets similarity 0 — the
	// failure mode the paper reports on D-Y.
	k1, k2, min := buildKBs(5)
	rare := k1.AddAttr("icd10")
	u := k1.AddEntity("e1_0") // already added: its ID
	k1.AddAttrTriple(u, rare, "G44.847")
	matches := FindMatches(k1, k2, min, DefaultOptions())
	for _, m := range matches {
		if m.A1 == rare {
			t.Errorf("rare attribute should not match: %+v", m)
		}
	}
}
