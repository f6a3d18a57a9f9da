package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/blocking"
	"repro/internal/datasets"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
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

// TestRowsAreInterned: on every built-in dataset, the row rowOf[i] names
// is, bit for bit, Builder.Vector(Retained[i]) followed by the blocking's
// prior of that pair — the uninterned vector and prior — and rows holds
// each distinct row exactly once, every one of them some vertex's.
func TestRowsAreInterned(t *testing.T) {
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			ds, err := datasets.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := Prepare(ds.K1, ds.K2, DefaultConfig())
			blk := testBlocking(ds.K1, ds.K2)
			w := p.dim + 1
			if len(p.rowOf) != len(p.Retained) || len(p.rows) != p.NumRows()*w {
				t.Fatalf("%d row ids for %d vertices; %d row floats for %d rows of %d", len(p.rowOf), len(p.Retained), len(p.rows), p.NumRows(), w)
			}
			bits := func(row []float64) string {
				var key []byte
				for _, x := range row {
					key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
				}
				return string(key)
			}
			used := make([]bool, p.NumRows())
			for i, q := range p.Retained {
				r := int(p.rowOf[i])
				want := append(p.Builder.Vector(q), blk.Priors[q])
				if got := p.rows[r*w : (r+1)*w]; bits(got) != bits(want) {
					t.Fatalf("vertex %d (%v): row %d = %v, want %v", i, q, r, got, want)
				}
				used[r] = true
			}
			seen := map[string]int{}
			for r := range p.NumRows() {
				key := bits(p.rows[r*w : (r+1)*w])
				if s, ok := seen[key]; ok {
					t.Fatalf("rows %d and %d are equal", s, r)
				}
				seen[key] = r
				if !used[r] {
					t.Fatalf("row %d is no vertex's", r)
				}
			}
			t.Logf("%d vertices, %d distinct rows", len(p.Retained), p.NumRows())
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

// TestShardGlobalIndexesAreIndexOf: every engine shard vertex's global
// index — read off the index cut, not searched for — is IndexOf of its
// pair in the whole graph, its prior is that vertex's, and the vertex is
// routed home to its shard; on d-y and a clustered graph at 1 and 4
// shards, after Prepare and over a PrepareOnRetained subset listed out of
// pair order.
func TestShardGlobalIndexesAreIndexOf(t *testing.T) {
	dy, err := datasets.ByName("d-y", 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := datasets.Clustered(48, 24, 1)
	for _, ds := range []*datasets.Dataset{dy, cl} {
		blk := testBlocking(ds.K1, ds.K2)
		for _, shards := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			p := Prepare(ds.K1, ds.K2, cfg)
			subset := slices.Clone(p.Retained)
			rand.New(rand.NewSource(int64(shards))).Shuffle(len(subset), func(a, b int) { subset[a], subset[b] = subset[b], subset[a] })
			subset = subset[:len(subset)*3/4]
			for _, q := range []*Prepared{p, PrepareOnRetained(ds.K1, ds.K2, cfg, subset, blk)} {
				if q.NumShards() < min(shards, 2) {
					t.Fatalf("%s at %d shards: %d engine shards", ds.Name, shards, q.NumShards())
				}
				for s := 0; s < q.NumShards(); s++ {
					sh := q.Shard(s)
					for i, v := range sh.Vertices() {
						gi := q.Graph.IndexOf(v)
						if sh.globalIdx[i] != gi || q.home[gi] != int32(s) || math.Float64bits(sh.prior[i]) != math.Float64bits(q.Prior(gi)) {
							t.Fatalf("%s at %d shards, shard %d vertex %d (%v): global index %d, IndexOf %d, home %d, prior %v, vertex prior %v",
								ds.Name, shards, s, i, v, sh.globalIdx[i], gi, q.home[max(gi, 0)], sh.prior[i], q.Prior(max(gi, 0)))
						}
					}
				}
			}
		}
	}
}

// TestPreparedKeysNothingByPair pins the layout: after Prepare a vertex is
// addressed by its index, so no map keyed by candidate pair is reachable
// from a Prepared — through fields, pointers, slices, arrays and map values,
// into the graph, the shards and their probabilistic graphs — nor from a
// Pruner, and a Prepared does not keep the blocking result (nor the
// partition: its shards' subgraphs list their vertices).
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
	for _, typ := range []reflect.Type{reflect.TypeFor[ergraph.Graph](), reflect.TypeFor[Shard](), reflect.TypeFor[propagation.ProbGraph]()} {
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
