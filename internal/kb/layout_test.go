package kb

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestKBHoldsNoMap pins the layout: nothing reachable from a KB through
// fields, pointers, slices and arrays is a map — the name index included —
// except through the builder, which freezing drops.
func TestKBHoldsNoMap(t *testing.T) {
	builderType := reflect.TypeFor[*builder]()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == builderType || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a %v", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeFor[KB](), "KB")
	for _, typ := range []reflect.Type{reflect.TypeFor[nameIndex](), reflect.TypeFor[csr[RelID, EntityID]](), reflect.TypeFor[csr[AttrID, string]]()} {
		if !seen[typ] {
			t.Errorf("the walk from KB never reached %v", typ)
		}
	}
	k := buildSample()
	k.Freeze()
	if k.b != nil {
		t.Error("a frozen KB still holds its builder")
	}
}

// TestAccessorsDoNotAllocate: the seven value-set accessors return
// windows of the frozen arrays.
func TestAccessorsDoNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	if err := randSnapKB(rand.New(rand.NewSource(3)), "allocs", 40).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*KB{buildSample(), decoded} {
		sink := 0
		for name, read := range map[string]func(u EntityID){
			"Out":        func(u EntityID) { sink += len(k.Out(u, 0)) },
			"In":         func(u EntityID) { sink += len(k.In(u, 1)) },
			"OutRels":    func(u EntityID) { sink += len(k.OutRels(u)) },
			"InRels":     func(u EntityID) { sink += len(k.InRels(u)) },
			"Attrs":      func(u EntityID) { sink += len(k.Attrs(u)) },
			"AttrValues": func(u EntityID) { sink += len(k.AttrValues(u, 0)) },
			"AttrLits":   func(u EntityID) { sink += len(k.AttrLits(u, 0)) },
		} {
			if n := testing.AllocsPerRun(20, func() {
				for u := range EntityID(k.NumEntities()) {
					read(u)
				}
			}); n != 0 {
				t.Errorf("%s: %s allocates %.1f times per sweep", k.Name(), name, n)
			}
		}
		if sink == 0 {
			t.Errorf("%s: the accessors returned nothing", k.Name())
		}
	}
}

// TestConcurrentFirstReads: a hand-built KB read from several goroutines
// at once freezes exactly once, and every reader sees the frozen arrays.
// Run it under -race.
func TestConcurrentFirstReads(t *testing.T) {
	k := randSnapKB(rand.New(rand.NewSource(5)), "racy", 30)
	want := dumpOf(randSnapKB(rand.New(rand.NewSource(5)), "racy", 30))
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = dumpOf(k)
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Fatalf("reader %d saw a different KB", g)
		}
	}
}
