package session

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pair"
)

// TestManagerSoakAnswerOnce is the concurrency soak: waves of sessions
// across two namespaces over the same dataset, each driven by its own
// goroutine with shuffled out-of-order delivery, one session per
// namespace abandoned mid-run. The invariant under test — the answer
// cache / reservation contract — is that no pair is ever answered by
// the external crowd twice within a namespace, while the namespaces
// stay fully isolated from each other (the same pair is asked once in
// each). Sized down under -short; run with -race.
func TestManagerSoakAnswerOnce(t *testing.T) {
	waves, perWave := 3, 6
	if testing.Short() {
		waves, perWave = 1, 4
	}
	namespaces := []string{"alpha", "beta"}

	k1, k2, gold := bookWorld(6, 61)
	want := core.Prepare(k1, k2, testConfig(nil)).Run(core.NewOracleAsker(gold.IsMatch))
	mgr := NewManager()

	oracles := map[string]*countingOracle{}
	for _, ns := range namespaces {
		oracles[ns] = &countingOracle{gold: gold, asked: map[pair.Pair]int{}}
	}

	drive := func(s *Session, ns string, seed int64, abandonAfter int) error {
		rng := rand.New(rand.NewSource(seed))
		answered := 0
		for !s.Done() {
			batch := s.NextBatch()
			if len(batch) == 0 {
				// Every open question is in flight in a sibling; yield.
				runtime.Gosched()
				continue
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, q := range batch {
				if abandonAfter > 0 && answered >= abandonAfter {
					// Walk away mid-batch: Remove must release this
					// session's reservations so siblings can finish.
					_, _, err := mgr.Remove(s.ID())
					return err
				}
				if err := s.Deliver(q.ID, oracles[ns].answer(q.Pair)); err != nil {
					return fmt.Errorf("session %s: %w", s.ID(), err)
				}
				answered++
			}
		}
		return nil
	}

	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, len(namespaces)*(perWave+1))
		type job struct {
			s       *Session
			ns      string
			abandon int
		}
		var jobs []job
		for _, ns := range namespaces {
			for i := 0; i < perWave; i++ {
				s, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), ns, nil)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{s: s, ns: ns})
			}
			// One doomed session per namespace per wave, abandoned after
			// a couple of answers while holding live reservations.
			s, err := mgr.Create(core.Prepare(k1, k2, testConfig(nil)), ns, nil)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{s: s, ns: ns, abandon: 2})
		}
		for ji, j := range jobs {
			wg.Add(1)
			go func(j job, seed int64) {
				defer wg.Done()
				if err := drive(j.s, j.ns, seed, j.abandon); err != nil {
					errs <- err
				}
			}(j, int64(wave*100+ji))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.abandon > 0 {
				continue
			}
			if !j.s.Done() {
				t.Fatalf("wave %d: session %s not done", wave, j.s.ID())
			}
			assertResultsIdentical(t, want, j.s.Result())
		}
	}

	for _, ns := range namespaces {
		o := oracles[ns]
		o.mu.Lock()
		for q, n := range o.asked {
			if n != 1 {
				t.Errorf("namespace %s: pair %v answered externally %d times; the reservation invariant broke", ns, q, n)
			}
		}
		asked := len(o.asked)
		o.mu.Unlock()
		if asked != want.Questions {
			t.Errorf("namespace %s: %d distinct pairs asked, want %d (one synchronous run's worth)", ns, asked, want.Questions)
		}
	}
}
