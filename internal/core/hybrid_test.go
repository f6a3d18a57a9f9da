package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

func TestHybridReducesQuestionsOrKeepsF1(t *testing.T) {
	k1, k2, gold := movieWorld(6, 41)

	run := func(hybrid bool) (*Result, pair.PRF) {
		cfg := DefaultConfig()
		cfg.Hybrid = hybrid
		cfg.Mu = 5
		p := Prepare(k1, k2, cfg)
		res := p.Run(NewOracleAsker(gold.IsMatch))
		return res, pair.Evaluate(res.Matches, gold)
	}
	base, basePRF := run(false)
	hyb, hybPRF := run(true)
	t.Logf("plain: F1=%.3f Q=%d | hybrid: F1=%.3f Q=%d",
		basePRF.F1, base.Questions, hybPRF.F1, hyb.Questions)

	// The hybrid must not be strictly worse on both axes.
	if hybPRF.F1 < basePRF.F1-0.05 && hyb.Questions >= base.Questions {
		t.Errorf("hybrid is dominated: F1 %v vs %v, Q %d vs %d",
			hybPRF.F1, basePRF.F1, hyb.Questions, base.Questions)
	}
	if hybPRF.F1 < 0.75 {
		t.Errorf("hybrid F1 = %v, unreasonably low", hybPRF.F1)
	}
}

func TestMonotoneInferenceDirections(t *testing.T) {
	k1, k2, gold := movieWorld(4, 43)
	cfg := DefaultConfig()
	cfg.Hybrid = true
	p := Prepare(k1, k2, cfg)
	res := p.Run(NewOracleAsker(gold.IsMatch))

	// Every monotone-inferred (propagated) match must respect 1:1.
	seen1 := map[int32]bool{}
	for m := range res.Matches {
		if seen1[int32(m.U1)] {
			t.Fatalf("1:1 violated on %v", m)
		}
		seen1[int32(m.U1)] = true
	}
	// Inference must never mark a pair both match and non-match.
	for m := range res.Matches {
		if res.NonMatches.Has(m) {
			t.Fatalf("%v is both match and non-match", m)
		}
	}
	if prf := pair.Evaluate(res.Matches, gold); prf.Precision < 0.9 {
		t.Errorf("hybrid precision = %v", prf.Precision)
	}
}

// TestEntityBlocksKeepVertexOrder: resolveCompetitors and
// monotoneInference visit a vertex's same-entity competitors through
// Prepared.blocks, and monotone inference's fixpoint depends on the order.
// Over a random retained set handed to PrepareOnRetained in non-pair
// order, every block must read exactly as the per-entity map the index
// replaced: filled by appending vertex indexes in vertex order.
func TestEntityBlocksKeepVertexOrder(t *testing.T) {
	k1, k2, _ := movieWorld(6, 7)
	full := Prepare(k1, k2, DefaultConfig())
	retained := slices.Clone(full.Retained)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(retained), func(i, j int) { retained[i], retained[j] = retained[j], retained[i] })
	retained = retained[:len(retained)*3/4]
	p := PrepareOnRetained(k1, k2, DefaultConfig(), retained, testBlocking(k1, k2))
	if !slices.Equal(p.Graph.Vertices(), retained) {
		t.Fatal("vertex order is not the retained order")
	}

	by1 := map[kb.EntityID][]int32{}
	by2 := map[kb.EntityID][]int32{}
	for i, v := range p.Graph.Vertices() {
		by1[v.U1] = append(by1[v.U1], int32(i))
		by2[v.U2] = append(by2[v.U2], int32(i))
	}
	shared := 0
	for i, v := range p.Graph.Vertices() {
		got := p.blocks(i)
		if !slices.Equal(got[0], by1[v.U1]) || !slices.Equal(got[1], by2[v.U2]) {
			t.Fatalf("blocks(%v) = %v, want [%v %v]", v, got, by1[v.U1], by2[v.U2])
		}
		if len(got[0]) > 1 || len(got[1]) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no entity is in two retained pairs: the test compares nothing")
	}
}
