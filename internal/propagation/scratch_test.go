package propagation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// drain pops the queue empty, returning the distances in pop order.
func drain(sc *scratch) []float64 {
	var out []float64
	for sc.occupied != 0 {
		out = append(out, sc.pop().d)
	}
	return out
}

// TestRadixQueue drives the queue the way Dijkstra does — every push at
// or above the last pop — and checks that it pops a minimum each time:
// equal keys, a +0 source key, keys spread over many buckets (from
// subnormals to 1e300), and a run abandoned half-drained that begin must
// forget. The occupied mask is empty whenever the queue is.
func TestRadixQueue(t *testing.T) {
	sc := getScratch(0)
	defer putScratch(sc)

	sc.begin()
	for range 3 {
		sc.push(pending{0, 1})
	}
	sc.push(pending{0.5, 2})
	sc.push(pending{0.5, 3})
	if got := drain(sc); !slices.Equal(got, []float64{0, 0, 0, 0.5, 0.5}) {
		t.Fatalf("equal keys and a +0 source popped as %v", got)
	}

	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 50; run++ {
		sc.begin()
		if sc.occupied != 0 || sc.last != 0 {
			t.Fatalf("run %d: begin left occupied=%b last=%x", run, sc.occupied, sc.last)
		}
		var want []float64 // the queued distances, a multiset
		push := func(d float64) {
			sc.push(pending{d, 0})
			want = append(want, d)
		}
		push(0)
		floor, pops := 0.0, 0
		for sc.occupied != 0 {
			if run%10 == 9 && pops == 20 {
				break // abandoned: the next begin must clear it
			}
			d := sc.pop().d
			pops++
			i := slices.Index(want, d)
			if d < floor || i < 0 || slices.Min(want) != d {
				t.Fatalf("run %d pop %d: popped %v (floor %v), queued %v", run, pops, d, floor, want)
			}
			want = slices.Delete(want, i, i+1)
			floor = d
			for k := rng.Intn(4); k > 0 && pops < 200; k-- {
				switch rng.Intn(4) {
				case 0:
					push(d) // a tie with the last pop
				case 1:
					push(d + math.SmallestNonzeroFloat64)
				case 2:
					push(d + math.Pow(10, float64(rng.Intn(600)-300)))
				default:
					push(d + rng.Float64())
				}
			}
		}
		if len(want) == 0 && sc.occupied != 0 {
			t.Fatalf("run %d: drained queue left occupied=%b", run, sc.occupied)
		}
	}
}

// TestInferFromIndexAllocatesNothing is the dynamic half of the hotpath
// lint: a warmed single-source run refilling its previous ball allocates
// nothing.
func TestInferFromIndexAllocatesNothing(t *testing.T) {
	pg := tiedPG(rand.New(rand.NewSource(3)), 200)
	zeta := zetaOf(0.3)
	sc := getScratch(pg.g.NumVertices())
	defer putScratch(sc)
	src, ball := 0, Ball(nil)
	for q := 0; q < pg.g.NumVertices(); q++ {
		if b := pg.inferFromIndex(q, zeta, sc, nil); len(b) > len(ball) {
			src, ball = q, b
		}
	}
	if len(ball) < 10 {
		t.Fatalf("largest ball has %d entries; the fixture should reach further", len(ball))
	}
	if allocs := testing.AllocsPerRun(100, func() { ball = pg.inferFromIndex(src, zeta, sc, ball) }); allocs != 0 {
		t.Fatalf("a warmed run allocated %v times", allocs)
	}
}
