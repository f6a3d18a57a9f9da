package selection

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func TestOrderByClosureGain(t *testing.T) {
	p := func(a, b int) pair.Pair { return pair.Pair{U1: kb.EntityID(a), U2: kb.EntityID(b)} }
	cands := []Candidate{
		{Pair: p(0, 0), Prob: 0.9, Inferred: []int{0}},       // closes nothing
		{Pair: p(1, 1), Prob: 0.9, Inferred: []int{1, 2, 3}}, // ball covers 2 and 3
		{Pair: p(2, 2), Prob: 0.9, Inferred: []int{2}},
		{Pair: p(3, 3), Prob: 0.9, Inferred: []int{3}},
		{Pair: p(4, 4), Prob: 0.9, Inferred: []int{4}},
		{Pair: p(4, 5), Prob: 0.9, Inferred: []int{5}}, // shares U1=4: competitor pair
	}
	position := map[pair.Pair]int{}
	for i, c := range cands {
		position[c.Pair] = i
	}
	order := func(batch []Candidate) []int {
		out := make([]int, len(batch))
		for i, c := range OrderByClosureGain(batch) {
			out[i] = position[c.Pair]
		}
		return out
	}
	got := order(cands)

	if got[0] != 1 {
		t.Fatalf("expected the ball question (index 1) first, got %v", got)
	}
	// The competitor pair (4,4)/(4,5) each close one mate, so one of
	// them (4, first in incoming order) is scheduled second; after that
	// every remaining question closes nothing and the tie keeps the
	// incoming order.
	want := []int{1, 4, 0, 2, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want %v", got, want)
		}
	}
	if len(got) != len(cands) {
		t.Fatalf("length changed: %v", got)
	}
	seen := map[int]bool{}
	for _, c := range got {
		seen[c] = true
	}
	if len(seen) != len(cands) {
		t.Fatalf("not a permutation: %v", got)
	}

	// Deterministic: same inputs, same schedule.
	again := order(append([]Candidate(nil), cands...))
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("schedule not deterministic: %v vs %v", got, again)
		}
	}

	// Short batches come back untouched.
	if out := order(cands[2:3]); len(out) != 1 || out[0] != 2 {
		t.Fatalf("singleton batch changed: %v", out)
	}
}
