package par

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNestedForEachCompletes nests ForEach three deep on schedulers with
// no and one helper token. A scheduler whose caller waited for a token
// would deadlock here, with the one token held by an outer task; the test
// fails at its deadline instead of hanging.
func TestNestedForEachCompletes(t *testing.T) {
	for _, tokens := range []int{0, 1} {
		s := NewScheduler(tokens)
		var leaves atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ForEach(4, func(int) {
				s.ForEach(4, func(int) {
					s.ForEach(4, func(int) { leaves.Add(1) })
				})
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d tokens: a nested ForEach did not return within 10s", tokens)
		}
		if got := leaves.Load(); got != 64 {
			t.Errorf("%d tokens: %d leaf calls, want 64", tokens, got)
		}
	}
}

// TestForEachBoundsConcurrency runs callers ForEach calls at once, some
// nested, on k tokens: no more than k + callers leaf calls ever run at
// the same time, since each caller and each helper runs one at a time.
func TestForEachBoundsConcurrency(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		for _, callers := range []int{1, 4} {
			s := NewScheduler(k)
			var running, peak atomic.Int64
			leaf := func(int) {
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				time.Sleep(50 * time.Microsecond)
				running.Add(-1)
			}
			var wg sync.WaitGroup
			for c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if c%2 == 0 {
						s.ForEach(64, leaf)
						return
					}
					s.ForEach(8, func(int) { s.ForEach(8, leaf) })
				}()
			}
			wg.Wait()
			if got, bound := peak.Load(), int64(k+callers); got > bound {
				t.Errorf("%d tokens, %d callers: %d calls ran at once, want at most %d", k, callers, got, bound)
			}
		}
	}
}

// TestForEachMatchesSerial: every index runs exactly once, and the
// results written by index equal a serial run, flat and nested, whatever
// the token count.
func TestForEachMatchesSerial(t *testing.T) {
	f := func(i int) int { return i*i%97 + i }
	for _, tokens := range []int{0, 1, 2, 7} {
		s := NewScheduler(tokens)
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			want := make([]int, n)
			RunAll(nil, n, func(i int) { want[i] = f(i) })
			got := make([]int, n)
			calls := make([]atomic.Int32, n)
			s.ForEach(n, func(i int) {
				calls[i].Add(1)
				got[i] = f(i)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("%d tokens, n=%d: index %d ran %d times", tokens, n, i, c)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d tokens, n=%d: results differ from the serial run", tokens, n)
			}
			nested := make([]int, n)
			rows := ChunkRanges(n, s, 4)
			s.ForEach(len(rows), func(r int) {
				s.ForEach(rows[r].Hi-rows[r].Lo, func(i int) { nested[rows[r].Lo+i] = f(rows[r].Lo + i) })
			})
			if !slices.Equal(nested, want) {
				t.Fatalf("%d tokens, n=%d: nested results differ from the serial run", tokens, n)
			}
		}
	}
}

// TestWorkHandsOutEveryGrainOnce: Grains cuts n items into contiguous
// ranges that cover them — one range for a nil Runner or fewer than
// 2·floor items — and Work runs at most Width workers (one for a nil
// Runner), which between them take every grain exactly once, whatever the
// token count.
func TestWorkHandsOutEveryGrainOnce(t *testing.T) {
	for _, tokens := range []int{0, 1, 8} {
		for _, n := range []int{0, 1, 7, 100, 5000} {
			for _, floor := range []int{1, 10, 1000} {
				for _, r := range []Runner{nil, NewScheduler(tokens)} {
					grains := Grains(r, n, floor)
					if (r == nil || n < 2*floor) && n > 0 && len(grains) != 1 {
						t.Fatalf("%d tokens, n=%d, floor %d, runner %v: %d grains, want 1", tokens, n, floor, r != nil, len(grains))
					}
					lo := 0
					for _, g := range grains {
						if g.Lo != lo || g.Hi <= g.Lo || g.Hi-g.Lo < min(floor, n) {
							t.Fatalf("%d tokens, n=%d, floor %d: grains %v do not cut [0,%d) by the floor", tokens, n, floor, grains, n)
						}
						lo = g.Hi
					}
					if lo != n {
						t.Fatalf("%d tokens, n=%d, floor %d: grains %v do not cover [0,%d)", tokens, n, floor, grains, n)
					}
					taken := make([]atomic.Int32, len(grains))
					var workers atomic.Int32
					Work(r, grains, func(next iter.Seq2[int, Range]) {
						workers.Add(1)
						for g, rg := range next {
							if rg != grains[g] {
								t.Errorf("grain %d handed out as %v, cut as %v", g, rg, grains[g])
							}
							taken[g].Add(1)
						}
					})
					for g := range taken {
						if c := taken[g].Load(); c != 1 {
							t.Fatalf("%d tokens, n=%d, floor %d: grain %d taken %d times", tokens, n, floor, g, c)
						}
					}
					if w, most := int(workers.Load()), min(Width(), len(grains)); w > most || r == nil && w > 1 {
						t.Fatalf("%d tokens, n=%d, floor %d, runner %v: %d workers for %d grains", tokens, n, floor, r != nil, w, len(grains))
					}
				}
			}
		}
	}
}
