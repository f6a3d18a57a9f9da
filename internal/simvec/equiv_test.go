package simvec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attrmatch"
	"repro/internal/kb"
	"repro/internal/pair"
)

type wideRunner struct{}

func (wideRunner) ForEach(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

var literalPool = []string{
	"", "hello world", "42", " 42 ", "3.14", "1999", "2001-05-03",
	"café naïve", "北京", "a b c", "the running cities", "O'Neill",
}

// randAttrKB builds a KB with nAttrs attributes and random value sets.
func randAttrKB(r *rand.Rand, name string, n, nAttrs int) *kb.KB {
	k := kb.New(name)
	attrs := make([]kb.AttrID, nAttrs)
	for a := 0; a < nAttrs; a++ {
		attrs[a] = k.AddAttr(fmt.Sprintf("attr%d", a))
	}
	for i := 0; i < n; i++ {
		u := k.AddEntity(fmt.Sprintf("%s:e%d", name, i))
		k.SetLabel(u, literalPool[r.Intn(len(literalPool))])
		for _, a := range attrs {
			for v := r.Intn(3); v > 0; v-- {
				k.AddAttrTriple(u, a, literalPool[r.Intn(len(literalPool))])
			}
		}
	}
	return k
}

// TestAllMatchesVector: the batched All must be byte-identical to the
// retained per-pair Vector on randomized KBs, serial and parallel — on a
// sorted pair list and then, from the same Builder, on an unsorted one
// that repeats pairs and reaches entities with no values at all. The
// returned vectors must not share storage.
func TestAllMatchesVector(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		k1 := randAttrKB(r, "k1", 12, 3)
		k2 := randAttrKB(r, "k2", 10, 4)
		bare1 := k1.AddEntity("k1:bare")
		bare2 := k2.AddEntity("k2:bare")
		matches := []attrmatch.Match{
			{A1: 0, A2: 0}, {A1: 1, A2: 2}, {A1: 2, A2: 3}, {A1: 0, A2: 1},
		}
		var sorted []pair.Pair
		for u1 := 0; u1 < k1.NumEntities(); u1++ {
			for u2 := 0; u2 < k2.NumEntities(); u2++ {
				if r.Intn(2) == 0 {
					sorted = append(sorted, pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)})
				}
			}
		}
		shuffled := []pair.Pair{{U1: bare1, U2: bare2}, {U1: bare1, U2: 3}, {U1: 5, U2: bare2}}
		for i := 0; i < 40; i++ {
			shuffled = append(shuffled, sorted[r.Intn(len(sorted))])
		}
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		for _, parallel := range []bool{false, true} {
			b := NewBuilder(k1, k2, matches, 0.9)
			if parallel {
				b.SetRunner(wideRunner{})
			}
			for li, pairs := range [][]pair.Pair{sorted, shuffled} {
				got := b.All(pairs)
				for i, p := range pairs {
					want := b.Vector(p)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("seed=%d parallel=%v list=%d: All[%d] = %v, Vector(%v) = %v", seed, parallel, li, i, got[i], p, want)
					}
				}
				// Overwrite and grow every other vector: the ones between
				// must still read as computed.
				for i := 0; i < len(got); i += 2 {
					for j := range got[i] {
						got[i][j] = -1
					}
					got[i] = append(got[i], -1)
				}
				for i := 1; i < len(got); i += 2 {
					if want := b.Vector(pairs[i]); !reflect.DeepEqual(got[i], want) {
						t.Fatalf("seed=%d parallel=%v list=%d: All[%d] changed to %v when its neighbours were written", seed, parallel, li, i, got[i])
					}
				}
			}
		}
	}
}
