package core

// The isolated-pair classifier as it stood before neighborhoods were
// grouped by signature, kept verbatim (renamed, counting its forest.Train
// calls, and with the per-pair signature it read from the similarity
// Builder as oracleSharedAttrMatches) as the reference the tests below
// compare classifyIsolated against.

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/forest"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/par"
)

// oracleClassifyIsolated implements §VII-B: isolated entity pairs (no incident
// ER-graph edges) cannot be reached by propagation, so instead of polling
// workers one pair at a time, a random forest is trained per
// attribute-signature neighborhood on the labels gathered so far. For an
// isolated pair p, the neighborhood N_p contains the retained pairs whose
// shared-attribute sets have Jaccard ≥ ψ with p's; resolved matches in N_p
// are positives and — because propagation only ever confirms matches —
// unresolved pairs in N_p are treated as negatives to balance the classes.
func oracleClassifyIsolated(p *Prepared, res *Result) (fits int) {
	isolated := p.Graph.Isolated()
	if len(isolated) == 0 {
		return 0
	}

	// Precompute shared-attribute signatures for all retained pairs.
	sig := make(map[pair.Pair][]int, len(p.Retained))
	for _, q := range p.Retained {
		sig[q] = oracleSharedAttrMatches(p, q)
	}

	type modelKey string
	models := map[modelKey]*forest.Forest{}
	var global *forest.Forest
	globalBuilt := false

	// Respect the 1:1 constraint among classifier predictions: process
	// isolated pairs in descending forest confidence per entity.
	type prediction struct {
		p    pair.Pair
		prob float64
	}
	var preds []prediction

	for _, iso := range isolated {
		if res.Matches.Has(iso) || res.NonMatches.Has(iso) {
			continue
		}
		key := modelKey(fmt.Sprint(sig[iso]))
		model, ok := models[key]
		if !ok {
			model = oracleTrainNeighborhoodForest(p, res, sig, sig[iso], &fits)
			models[key] = model
		}
		if model == nil {
			// Too little same-signature training data (e.g. a type whose
			// matches are all isolated): fall back to a single forest
			// trained on every resolved pair. This keeps recall on
			// datasets like D-Y where whole types are disconnected (see
			// ARCHITECTURE.md, "Data flow", step 7).
			if !globalBuilt {
				global = oracleTrainNeighborhoodForest(p, res, sig, nil, &fits)
				globalBuilt = true
			}
			model = global
		}
		if model == nil {
			continue
		}
		if prob := model.Prob(oracleIsolatedFeatures(p, iso)); prob >= 0.5 {
			preds = append(preds, prediction{p: iso, prob: prob})
		}
	}

	sort.Slice(preds, func(i, j int) bool {
		if preds[i].prob != preds[j].prob {
			return preds[i].prob > preds[j].prob
		}
		return preds[i].p.Less(preds[j].p)
	})
	used1 := map[kb.EntityID]bool{}
	used2 := map[kb.EntityID]bool{}
	for _, pr := range preds {
		if used1[pr.p.U1] || used2[pr.p.U2] {
			continue
		}
		used1[pr.p.U1] = true
		used2[pr.p.U2] = true
		res.IsolatedPredicted.Add(pr.p)
		res.Matches.Add(pr.p)
	}
	return fits
}

// oracleTrainNeighborhoodForest builds the training set N_p for one attribute
// signature and fits a forest; it returns nil when either class is too
// thin. A nil target disables the ψ filter (the global fallback model).
// Negatives are subsampled to class parity: the paper uses unresolved
// pairs as non-matches explicitly "to balance the proportions of
// different labels" (§VII-B).
func oracleTrainNeighborhoodForest(p *Prepared, res *Result, sig map[pair.Pair][]int, target []int, fits *int) *forest.Forest {
	var posX, negX [][]float64
	for _, q := range p.Retained {
		if target != nil && oracleJaccardInts(sig[q], target) < psi {
			continue
		}
		switch {
		case res.Matches.Has(q):
			posX = append(posX, oracleIsolatedFeatures(p, q))
		case res.NonMatches.Has(q):
			negX = append(negX, oracleIsolatedFeatures(p, q))
		default:
			// Unresolved pairs act as negatives — but only the
			// non-isolated ones, which propagation had a chance to
			// confirm.
			if i := p.Graph.IndexOf(q); len(p.Graph.OutIndexesAt(i)) > 0 || len(p.Graph.InIndexesAt(i)) > 0 {
				negX = append(negX, oracleIsolatedFeatures(p, q))
			}
		}
	}
	// A usable neighborhood model needs a handful of examples on each
	// side; thinner ones defer to the global fallback.
	if len(posX) < 5 || len(negX) < 5 {
		return nil
	}
	// Deterministic subsampling of the majority class to parity.
	if len(negX) > len(posX) {
		step := float64(len(negX)) / float64(len(posX))
		sampled := make([][]float64, 0, len(posX))
		for i := 0; i < len(posX); i++ {
			sampled = append(sampled, negX[int(float64(i)*step)])
		}
		negX = sampled
	} else if len(posX) > len(negX) {
		step := float64(len(posX)) / float64(len(negX))
		sampled := make([][]float64, 0, len(negX))
		for i := 0; i < len(negX); i++ {
			sampled = append(sampled, posX[int(float64(i)*step)])
		}
		posX = sampled
	}
	X := append(append([][]float64{}, posX...), negX...)
	y := make([]bool, len(X))
	for i := range posX {
		y[i] = true
	}
	*fits++
	return forest.Train(X, y, forest.Options{NumTrees: 100, Seed: p.Cfg.Seed})
}

// oracleIsolatedFeatures is the classifier's feature vector for a pair: the
// similarity vector over attribute matches plus the label-similarity
// prior (the same Pr[m_p] the rest of the pipeline consumes), which adds a
// continuous signal where the simL components saturate to 0/1.
func oracleIsolatedFeatures(p *Prepared, q pair.Pair) []float64 {
	i := p.Graph.IndexOf(q)
	vec := p.Vector(i)
	out := make([]float64, len(vec)+1)
	copy(out, vec)
	out[len(vec)] = p.Prior(i)
	return out
}

// oracleSharedAttrMatches returns the indexes of attribute matches on which
// both entities of q have at least one value: a signature, pair by pair.
func oracleSharedAttrMatches(p *Prepared, q pair.Pair) []int {
	var out []int
	for i, m := range p.AttrMatches {
		if len(p.K1.AttrValues(q.U1, m.A1)) > 0 && len(p.K2.AttrValues(q.U2, m.A2)) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// oracleJaccardInts is the Jaccard coefficient over two integer sets (attribute
// match indexes); both empty counts as similarity 1 per the ψ-neighborhood
// definition (identical signatures).
func oracleJaccardInts(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	seen := make(map[int]uint8, len(a)+len(b))
	for _, x := range a {
		seen[x] |= 1
	}
	for _, x := range b {
		seen[x] |= 2
	}
	inter := 0
	for _, m := range seen {
		if m == 3 {
			inter++
		}
	}
	return float64(inter) / float64(len(seen))
}

// resolvedWithoutClassifier runs the loop to its end under the 10 %-flip
// crowd with the classifier off: the state classifyIsolated starts from.
func resolvedWithoutClassifier(tb testing.TB, name string, cfg Config) (*Prepared, *Result) {
	tb.Helper()
	ds, err := datasets.ByName(name, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.ClassifyIsolated = false
	p := Prepare(ds.K1, ds.K2, cfg)
	return p, p.Run(noisyPlatform(ds))
}

// classifiable copies the sets of res that classification writes.
func classifiable(res *Result) *Result {
	out := *res
	out.Matches = res.Matches.Clone()
	out.IsolatedPredicted = pair.NewSet()
	return &out
}

// TestClassifyIsolatedMatchesOracle pins the signature-grouped classifier
// to the per-pair one it replaced: from the same loop state both predict
// the same isolated matches, on every built-in dataset, with and without
// a budget, sharded or not, with and without deduction.
func TestClassifyIsolatedMatchesOracle(t *testing.T) {
	predicted := 0
	defer func() {
		if predicted == 0 {
			t.Error("no configuration predicted an isolated match: the comparison is vacuous")
		}
	}()
	for _, name := range datasets.Names() {
		for _, budget := range []int{0, 40} {
			for _, shards := range []int{1, 4} {
				for _, deduce := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/budget=%d/shards=%d/deduce=%v", name, budget, shards, deduce), func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Budget, cfg.Shards, cfg.Deduce = budget, shards, deduce
						p, res := resolvedWithoutClassifier(t, name, cfg)
						checkRoles(t, p, res)
						got, want := classifiable(res), classifiable(res)
						p.classifyIsolated(got)
						oracleClassifyIsolated(p, want)
						predicted += want.IsolatedPredicted.Len()
						assertResultsIdentical(t, got, want)
						if len(p.isolated) == 0 {
							return
						}
						// The same outcome again is served from the memo.
						if _, ok := p.iso.recall(p.roles(res)); !ok {
							t.Fatal("the outcome was not remembered")
						}
						again := classifiable(res)
						p.classifyIsolated(again)
						assertResultsIdentical(t, again, want)
					})
				}
			}
		}
	}
}

// checkRoles holds roles, which marks the members of the result's sets, to
// the per-vertex probe it replaced, on res and on res with one of its
// matched vertices and two pairs that are no vertex added to both sets.
func checkRoles(t *testing.T, p *Prepared, res *Result) {
	t.Helper()
	probe := func(res *Result) []byte {
		roles := make([]byte, len(p.Retained))
		for i, q := range p.Retained {
			switch {
			case res.Matches.Has(q):
				roles[i] = rolePositive
			case res.NonMatches.Has(q) || p.home[i] >= 0:
				roles[i] = roleNegative
			default:
				roles[i] = roleTarget
			}
		}
		return roles
	}
	extra := classifiable(res)
	extra.NonMatches = res.NonMatches.Clone()
	both := []pair.Pair{{U1: 1 << 30, U2: 0}, {U1: p.Retained[0].U1, U2: -1}}
	for _, q := range res.Matches.Sorted() {
		if p.Graph.IndexOf(q) >= 0 {
			both = append(both, q)
			break
		}
	}
	for _, q := range both {
		extra.Matches.Add(q)
		extra.NonMatches.Add(q)
	}
	for _, r := range []*Result{res, extra} {
		if got, want := p.roles(r), probe(r); !slices.Equal(got, want) {
			t.Fatal("roles differ from the per-vertex probe")
		}
	}
}

// TestClassifyIsolatedFitsEachTrainingSetOnce counts forest.Train calls
// through a d-y session, the forests fitted concurrently. D-Y has pairs
// that share no attribute and thin neighborhoods: the per-pair classifier
// fitted the all-pairs model once for the first kind and once more as the
// fallback of the second, and one forest per signature even where two
// signatures had the same neighbors. The signatures are checked against
// the per-pair definition on the way.
func TestClassifyIsolatedFitsEachTrainingSetOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget = 40
	p, res := resolvedWithoutClassifier(t, "d-y", cfg)

	plan := p.isoInputs()
	// Equal signature ids are equal per-pair signatures, and vice versa.
	idOf, sigOf := map[string]int32{}, map[int32]string{}
	for i, q := range p.Retained {
		sig, id := fmt.Sprint(oracleSharedAttrMatches(p, q)), plan.sigOf[i]
		if had, ok := idOf[sig]; ok && had != id {
			t.Fatalf("signature %s has ids %d and %d", sig, had, id)
		}
		if had, ok := sigOf[id]; ok && had != sig {
			t.Fatalf("signature id %d stands for %s and %s", id, had, sig)
		}
		idOf[sig], sigOf[id] = id, sig
	}
	f := newIsoFitter(p, p.roles(res))
	f.predict(nil)
	emptySig, thin := false, false
	for _, i := range p.isolated {
		if f.roles[i] != roleTarget {
			continue
		}
		emptySig = emptySig || len(oracleSharedAttrMatches(p, p.Retained[i])) == 0
		thin = thin || f.models[plan.hoodOf[plan.sigOf[i]]] == nil
	}
	if !emptySig || !thin {
		t.Fatalf("fixture lost its point: empty-signature target %v, thin neighborhood %v", emptySig, thin)
	}
	if f.models[plan.all] == nil {
		t.Fatal("no all-pairs model fitted")
	}
	fitted := 0
	for _, m := range f.models {
		if m != nil {
			fitted++
		}
	}
	fits := int(f.fits.Load())
	if fits != fitted {
		t.Errorf("%d forest.Train calls for %d distinct training sets", fits, fitted)
	}
	if oracle := oracleClassifyIsolated(p, classifiable(res)); fits >= oracle {
		t.Errorf("%d forest.Train calls, the per-pair classifier made %d", fits, oracle)
	} else {
		t.Logf("forest.Train calls: %d (per-pair classifier: %d), %d neighborhoods", fits, oracle, len(plan.hoods))
	}
}

// TestClassifyIsolatedIgnoresSchedule fits the forests in turn (no
// runner) and on a scheduler with eight helper tokens: the predictions are
// the same, on every built-in dataset, with and without a budget. Run with
// -race: the fits share the plan and the roles.
func TestClassifyIsolatedIgnoresSchedule(t *testing.T) {
	for _, name := range datasets.Names() {
		for _, budget := range []int{0, 40} {
			t.Run(fmt.Sprintf("%s/budget=%d", name, budget), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Budget = budget
				p, res := resolvedWithoutClassifier(t, name, cfg)
				p.isoInputs()
				roles := p.roles(classifiable(res))
				serial := newIsoFitter(p, roles).predict(nil)
				if wide := newIsoFitter(p, roles).predict(par.NewScheduler(8)); !slices.Equal(wide, serial) {
					t.Errorf("eight helpers predicted %v, in turn %v", wide, serial)
				}
			})
		}
	}
}

// TestConcurrentClassificationsShareOnePlan classifies several outcomes of
// one plan from many goroutines at once; each must equal the per-pair
// classifier's serial result on the same outcome. Run with -race: the
// sessions share the plan's inputs and its memo.
func TestConcurrentClassificationsShareOnePlan(t *testing.T) {
	const sessions = 12
	ds, err := datasets.ByName("d-y", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Budget, cfg.ClassifyIsolated = 40, false
	p := Prepare(ds.K1, ds.K2, cfg)
	res := p.Run(noisyPlatform(ds))
	// Three outcomes: the session's, and two that forget every second or
	// third of its matches.
	var outcomes, want []*Result
	roles := map[string]bool{}
	for k := range 3 {
		out := classifiable(res)
		if k > 0 {
			n := 0
			for _, q := range res.Matches.Sorted() {
				if n++; n%(k+1) == 0 {
					delete(out.Matches, q)
				}
			}
		}
		outcomes = append(outcomes, out)
		want = append(want, classifiable(out))
		oracleClassifyIsolated(p, want[k])
		roles[string(p.roles(out))] = true
	}
	if len(roles) != len(outcomes) {
		t.Fatalf("fixture lost its point: %d distinct outcomes of %d", len(roles), len(outcomes))
	}

	got := make([]*Result, sessions)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = classifiable(outcomes[g%len(outcomes)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.classifyIsolated(got[g])
		}()
	}
	wg.Wait()
	for g, res := range got {
		assertResultsIdentical(t, res, want[g%len(outcomes)])
	}
	if len(p.iso.memo) != len(outcomes) {
		t.Errorf("memo holds %d outcomes, want %d", len(p.iso.memo), len(outcomes))
	}
}

// TestIsoMemoIsBounded fills the memo past isoMemoCap: it keeps the most
// recent outcomes, once each.
func TestIsoMemoIsBounded(t *testing.T) {
	var c isoPlan
	for k := range isoMemoCap + 2 {
		roles := []byte{byte(k)}
		c.remember(roles, []int32{int32(k)})
		c.remember(roles, []int32{int32(k)})
	}
	if len(c.memo) != isoMemoCap {
		t.Fatalf("memo holds %d outcomes, want %d", len(c.memo), isoMemoCap)
	}
	for k := range isoMemoCap + 2 {
		matches, ok := c.recall([]byte{byte(k)})
		if want := k >= 2; ok != want || ok && matches[0] != int32(k) {
			t.Errorf("outcome %d: recalled %v %v, want remembered=%v", k, matches, ok, want)
		}
	}
}

// BenchmarkClassifyIsolated classifies one d-y outcome (budget 40, the
// serve-* shape). first is a fresh plan's first classification: its
// inputs (signatures, neighborhoods, row classes) are built and every
// needed forest is fitted. cold is an outcome the plan has not seen: the
// forests are fitted, over inputs built before timing. warm is the same
// outcome a second time, served from the plan's memo.
func BenchmarkClassifyIsolated(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Budget = 40
	p, res := resolvedWithoutClassifier(b, "d-y", cfg)
	for _, name := range []string{"first", "cold", "warm"} {
		b.Run(name, func(b *testing.B) {
			p.classifyIsolated(classifiable(res))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := classifiable(res)
				switch name {
				case "first":
					p.iso = isoPlan{}
				case "cold":
					p.iso.memo = nil
				}
				b.StartTimer()
				p.classifyIsolated(r)
			}
		})
	}
}
