package pair

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kb"
)

func TestPairOrderingAndString(t *testing.T) {
	a := Pair{1, 2}
	b := Pair{1, 3}
	c := Pair{2, 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("Less ordering wrong")
	}
	if a.String() != "(1,2)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(Pair{1, 1}, Pair{2, 2})
	if s.Len() != 2 || !s.Has(Pair{1, 1}) {
		t.Fatal("NewSet wrong")
	}
	s.Add(Pair{3, 3})
	s.Add(Pair{3, 3})
	if s.Len() != 3 {
		t.Errorf("Len = %d after duplicate add", s.Len())
	}
	delete(s, Pair{1, 1})
	if s.Has(Pair{1, 1}) {
		t.Error("Remove failed")
	}
	clone := s.Clone()
	clone.Add(Pair{9, 9})
	if s.Has(Pair{9, 9}) {
		t.Error("Clone aliases original")
	}
}

func TestSortedDeterministic(t *testing.T) {
	s := NewSet(Pair{2, 1}, Pair{1, 2}, Pair{1, 1})
	got := s.Sorted()
	want := []Pair{{1, 1}, {1, 2}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestEvaluate(t *testing.T) {
	gold := NewGold([]Pair{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	pred := NewSet(Pair{1, 1}, Pair{2, 2}, Pair{5, 5})
	m := Evaluate(pred, gold)
	if m.TP != 2 || m.FP != 1 || m.FN != 2 {
		t.Fatalf("counts: %+v", m)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-12 {
		t.Errorf("precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-0.5) > 1e-12 {
		t.Errorf("recall = %v", m.Recall)
	}
	wantF1 := 2 * (2.0 / 3.0) * 0.5 / (2.0/3.0 + 0.5)
	if math.Abs(m.F1-wantF1) > 1e-12 {
		t.Errorf("f1 = %v, want %v", m.F1, wantF1)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	gold := NewGold(nil)
	m := Evaluate(NewSet(), gold)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("empty/empty: %+v", m)
	}
	m = Evaluate(NewSet(Pair{1, 1}), gold)
	if m.Precision != 0 {
		t.Errorf("all-FP precision = %v", m.Precision)
	}
}

func TestReductionRatio(t *testing.T) {
	if got := ReductionRatio(100, 30); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("RR = %v, want 0.7", got)
	}
	if got := ReductionRatio(0, 0); got != 0 {
		t.Errorf("RR(0,0) = %v", got)
	}
	if got := ReductionRatio(10, 10); got != 0 {
		t.Errorf("RR(10,10) = %v", got)
	}
}

func TestPairCompleteness(t *testing.T) {
	gold := NewGold([]Pair{{1, 1}, {2, 2}})
	cands := NewSet(Pair{1, 1}, Pair{9, 9})
	if got := PairCompleteness(cands, gold); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PC = %v, want 0.5", got)
	}
	if got := PairCompleteness(cands, NewGold(nil)); got != 0 {
		t.Errorf("PC on empty gold = %v", got)
	}
}

// Property: F1 is the harmonic mean and lies between precision and recall.
func TestPRFProperties(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		m := FromCounts(int(tp), int(fp), int(fn))
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 {
			return false
		}
		lo, hi := m.Precision, m.Recall
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.F1 >= lo-1e-9 && m.F1 <= hi+1e-9 || m.F1 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGroupByEntity(t *testing.T) {
	pairs := []Pair{{3, 1}, {0, 2}, {3, 0}, {0, 2}, {5, 1}, {3, 1}}
	for _, side1 := range []bool{true, false} {
		want := map[kb.EntityID][]int32{}
		for i, p := range pairs {
			e := p.U2
			if side1 {
				e = p.U1
			}
			want[e] = append(want[e], int32(i))
		}
		start, order := GroupByEntity(pairs, side1)
		if len(order) != len(pairs) {
			t.Fatalf("side1=%v: %d positions for %d pairs", side1, len(order), len(pairs))
		}
		for e := 0; e+1 < len(start); e++ {
			if got := order[start[e]:start[e+1]]; !slices.Equal(got, want[kb.EntityID(e)]) {
				t.Errorf("side1=%v entity %d: positions %v, want %v", side1, e, got, want[kb.EntityID(e)])
			}
			delete(want, kb.EntityID(e))
		}
		if len(want) != 0 {
			t.Errorf("side1=%v: entities %v not covered by start", side1, want)
		}
	}
	if start, order := GroupByEntity(nil, true); len(start) != 1 || len(order) != 0 {
		t.Errorf("no pairs: start=%v order=%v", start, order)
	}
}
