package sigma

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/simvec"
)

// chainInput builds one long chain component plus m isolated pairs.
func chainInput(n, isolated int) (*baselines.Input, *pair.Gold, []pair.Pair) {
	k1, k2 := kb.New("a"), kb.New("b")
	r1, r2 := k1.AddRel("next"), k2.AddRel("next")
	var retained, gold, chain []pair.Pair
	priors := map[pair.Pair]float64{}
	var prev1, prev2 kb.EntityID = -1, -1
	for i := 0; i < n; i++ {
		u1, u2 := k1.AddEntity(fmt.Sprintf("c%d", i)), k2.AddEntity(fmt.Sprintf("c%d", i))
		p := pair.Pair{U1: u1, U2: u2}
		retained = append(retained, p)
		gold = append(gold, p)
		chain = append(chain, p)
		priors[p] = 0.7
		if prev1 >= 0 {
			k1.AddRelTriple(prev1, r1, u1)
			k2.AddRelTriple(prev2, r2, u2)
		}
		prev1, prev2 = u1, u2
	}
	for i := 0; i < isolated; i++ {
		u1, u2 := k1.AddEntity(fmt.Sprintf("i%d", i)), k2.AddEntity(fmt.Sprintf("i%d", i))
		p := pair.Pair{U1: u1, U2: u2}
		retained = append(retained, p)
		gold = append(gold, p)
		priors[p] = 0.9 // high string similarity, but disconnected
	}
	vectors := map[pair.Pair]simvec.Vector{}
	for _, p := range retained {
		vectors[p] = simvec.Vector{priors[p]}
	}
	return &baselines.Input{
		K1: k1, K2: k2, Retained: retained, Priors: priors, Vectors: vectors,
	}, pair.NewGold(gold), chain
}

func TestSigmaGrowsFromSeedRegion(t *testing.T) {
	in, _, chain := chainInput(12, 6)
	in.Seeds = []pair.Pair{chain[0]}
	out := Method{}.Run(in)
	// The whole chain is reachable from the seed...
	for _, p := range chain {
		if !out.Matches.Has(p) {
			t.Errorf("chain pair %v not matched", p)
		}
	}
	// ...but the isolated pairs must never enter the agenda, no matter how
	// string-similar they are (SiGMa's defining limitation on D-Y).
	for p := range out.Matches {
		if in.K1.EntityName(p.U1)[0] == 'i' {
			t.Errorf("isolated pair %v matched — agenda leaked beyond the seed region", p)
		}
	}
}

func TestSigmaNoSeedsNothing(t *testing.T) {
	in, _, _ := chainInput(5, 3)
	out := Method{}.Run(in)
	if out.Matches.Len() != 0 {
		t.Errorf("matched %d pairs without seeds", out.Matches.Len())
	}
}

func TestSigmaThresholdStopsWeakCandidates(t *testing.T) {
	in, _, chain := chainInput(6, 0)
	for _, p := range in.Retained {
		in.Priors[p] = 0.01 // below any sensible acceptance
	}
	in.Seeds = []pair.Pair{chain[0]}
	out := Method{Opts: Options{Alpha: 0.9, Threshold: 0.5}}.Run(in)
	// Only the seed itself survives.
	if out.Matches.Len() != 1 {
		t.Errorf("weak candidates accepted: %d matches", out.Matches.Len())
	}
}

func TestSigmaName(t *testing.T) {
	if (Method{}).Name() != "SiGMa" {
		t.Error("wrong name")
	}
}
