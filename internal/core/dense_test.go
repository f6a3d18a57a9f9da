package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/blocking"
	"repro/internal/datasets"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/simvec"
)

// testBlocking is the blocking result Prepare computes under the default
// config: what a test hands PrepareOnRetained.
func testBlocking(k1, k2 *kb.KB) *blocking.Result {
	return blocking.Generate(k1, k2, blocking.Options{Threshold: DefaultConfig().LabelSimThreshold})
}

// TestDenseViewMatchesBuilder: vertex i's vector is, bit for bit, the
// per-pair Builder.Vector of Retained[i], and its prior the blocking's
// prior of that pair — after pruning on three datasets, and over a
// PrepareOnRetained subset in shuffled order. Retained is the graph's own
// vertex list.
func TestDenseViewMatchesBuilder(t *testing.T) {
	type fixture struct {
		name   string
		k1, k2 *kb.KB
	}
	var fixtures []fixture
	for _, name := range []string{"d-y", "iimb"} {
		ds, err := datasets.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{name, ds.K1, ds.K2})
	}
	cl := datasets.Clustered(48, 24, 1)
	fixtures = append(fixtures, fixture{"clustered", cl.K1, cl.K2})

	check := func(t *testing.T, p *Prepared, blk *blocking.Result) {
		t.Helper()
		if len(p.Retained) == 0 || unsafe.SliceData(p.Retained) != unsafe.SliceData(p.Graph.Vertices()) {
			t.Fatal("Retained is not Graph.Vertices()")
		}
		for i, q := range p.Retained {
			got, want := p.Vector(i), p.Builder.Vector(q)
			if len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("Vector(%d) has len %d cap %d, want len %d", i, len(got), cap(got), len(want))
			}
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("Vector(%d) = %v, Builder.Vector(%v) = %v", i, got, q, want)
				}
			}
			if prior, ok := blk.Priors[q]; !ok || math.Float64bits(p.Prior(i)) != math.Float64bits(prior) {
				t.Fatalf("Prior(%d) = %v, blocking prior of %v = %v (present %v)", i, p.Prior(i), q, prior, ok)
			}
		}
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			p := Prepare(f.k1, f.k2, DefaultConfig())
			blk := testBlocking(f.k1, f.k2)
			check(t, p, blk)

			subset := make([]pair.Pair, 0, len(p.Retained)/2)
			for i := len(p.Retained) - 1; i >= 0; i -= 2 {
				subset = append(subset, p.Retained[i])
			}
			check(t, PrepareOnRetained(f.k1, f.k2, DefaultConfig(), subset, blk), blk)
		})
	}
}

// TestPrepareOnRetainedRejectsPairWithoutPrior: a retained pair blocking
// never proposed has no prior. The shards once read it as 0 and
// PropagateFromSeeds as 0.5; now Prepare refuses it, naming the pair.
func TestPrepareOnRetainedRejectsPairWithoutPrior(t *testing.T) {
	k1, k2, _ := movieWorld(3, 5)
	blk := testBlocking(k1, k2)
	var stray pair.Pair
	for u2 := range kb.EntityID(k2.NumEntities()) {
		if _, ok := blk.Priors[pair.Pair{U1: 0, U2: u2}]; !ok {
			stray = pair.Pair{U1: 0, U2: u2}
			break
		}
	}
	if _, ok := blk.Priors[stray]; ok {
		t.Fatal("fixture has no pair outside the candidates")
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprint(stray)) {
			t.Fatalf("PrepareOnRetained with %v: panic %v, want one naming the pair", stray, r)
		}
	}()
	PrepareOnRetained(k1, k2, DefaultConfig(), append([]pair.Pair{blk.Candidates[0].Pair}, stray), blk)
}

// TestPreparedKeysNothingByPair pins the layout: after Prepare a vertex is
// addressed by its index, so no map keyed by candidate pair is reachable
// from a Prepared — through fields, pointers, slices, arrays and map values,
// into the graph, the shards, their probabilistic graphs and the partition
// — nor from a Pruner, and a Prepared does not keep the blocking result.
func TestPreparedKeysNothingByPair(t *testing.T) {
	pairType, blkType := reflect.TypeFor[pair.Pair](), reflect.TypeFor[*blocking.Result]()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == blkType || typ.Kind() == reflect.Map && typ.Key() == pairType {
			t.Errorf("%s is a %v", path, typ)
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			walk(typ.Elem(), path+"[…]")
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeFor[Prepared](), "Prepared")
	walk(reflect.TypeFor[simvec.Pruner](), "Pruner")
	for _, typ := range []reflect.Type{reflect.TypeFor[ergraph.Graph](), reflect.TypeFor[Shard](), reflect.TypeFor[propagation.ProbGraph](), reflect.TypeFor[partition.Partition]()} {
		if !seen[typ] {
			t.Errorf("the walk from Prepared never reached %v", typ)
		}
	}
}

// TestPrepareOnRetainedRejectsRepeatedPair: a retained list that repeats a
// pair would build two vertices for one pair; Prepare refuses it, naming
// the pair.
func TestPrepareOnRetainedRejectsRepeatedPair(t *testing.T) {
	k1, k2, _ := movieWorld(3, 5)
	blk := testBlocking(k1, k2)
	twice := blk.Candidates[1].Pair
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprint(twice)) {
			t.Fatalf("PrepareOnRetained with %v twice: panic %v, want one naming the pair", twice, r)
		}
	}()
	PrepareOnRetained(k1, k2, DefaultConfig(), []pair.Pair{blk.Candidates[0].Pair, twice, twice}, blk)
}
