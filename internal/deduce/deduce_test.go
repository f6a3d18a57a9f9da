package deduce

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

// node encodes a KB-qualified entity for the reference oracle: U1
// entities on bit 0 = 0, U2 entities on bit 0 = 1, so the two KBs'
// independent ID spaces do not collide.
type node int64

func leftNode(id kb.EntityID) node  { return node(id) << 1 }
func rightNode(id kb.EntityID) node { return node(id)<<1 | 1 }

// refOracle is the brute-force reference: it recomputes the transitive
// closure under the 1:1 constraint from scratch on every query, with
// none of the Store's structures, so agreement is meaningful.
type refOracle struct {
	matches    []pair.Pair
	nonmatches []pair.Pair
}

func (r *refOracle) record(p pair.Pair, v Verdict) {
	if v == Match {
		r.matches = append(r.matches, p)
	} else {
		r.nonmatches = append(r.nonmatches, p)
	}
}

// distinctMatches is the number of different match facts recorded: the
// Store's Unions once every recorded fact was accepted.
func (r *refOracle) distinctMatches() uint64 {
	return uint64(pair.NewSet(r.matches...).Len())
}

// clusterOf floods match edges from n and returns the reachable set.
func (r *refOracle) clusterOf(n node) map[node]bool {
	seen := map[node]bool{n: true}
	for changed := true; changed; {
		changed = false
		for _, m := range r.matches {
			a, b := leftNode(m.U1), rightNode(m.U2)
			if seen[a] != seen[b] {
				seen[a], seen[b] = true, true
				changed = true
			}
		}
	}
	return seen
}

func (r *refOracle) lookup(p pair.Pair) Verdict {
	a, b := leftNode(p.U1), rightNode(p.U2)
	ca := r.clusterOf(a)
	if ca[b] {
		return Match
	}
	cb := r.clusterOf(b)
	for _, nm := range r.nonmatches {
		x, y := leftNode(nm.U1), rightNode(nm.U2)
		if (ca[x] && cb[y]) || (ca[y] && cb[x]) {
			return NonMatch
		}
	}
	for n := range ca {
		if n&1 == 1 { // p.U1 already matched to some U2
			return NonMatch
		}
	}
	for n := range cb {
		if n&1 == 0 { // p.U2 already matched to some U1
			return NonMatch
		}
	}
	return Unknown
}

type fact struct {
	p pair.Pair
	v Verdict
}

// genFacts builds a random consistent answer stream: a ground-truth 1:1
// matching between nL left and nR right entities, then sampled pairs
// labeled from it.
func genFacts(rng *rand.Rand, nL, nR, samples int) []fact {
	partner := make([]int, nR) // right i's left partner, -1 when unmatched
	for i := range partner {
		partner[i] = -1
		if i < nL && rng.Intn(2) == 0 {
			partner[i] = i
		}
	}
	var facts []fact
	for len(facts) < samples {
		p := pair.Pair{U1: kb.EntityID(rng.Intn(nL)), U2: kb.EntityID(rng.Intn(nR))}
		if partner[p.U2] == int(p.U1) {
			facts = append(facts, fact{p, Match})
		} else {
			facts = append(facts, fact{p, NonMatch})
		}
	}
	return facts
}

// TestPropertyAgainstBruteForce: for randomized ground-truth matchings
// and shuffled answer streams, the Store accepts every consistent fact,
// agrees with the brute-force closure oracle on every pair, counts the
// oracle's hits and distinct matches, and ends in the same Snapshot for
// every permutation of the same answers.
func TestPropertyAgainstBruteForce(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nL, nR := 3+rng.Intn(10), 3+rng.Intn(10)
		facts := genFacts(rng, nL, nR, 5+rng.Intn(40))

		ref := &refOracle{}
		base := New()
		for _, f := range facts {
			if !base.Record(f.p, f.v) {
				t.Fatalf("trial=%d: consistent fact %v/%v rejected", trial, f.p, f.v)
			}
			ref.record(f.p, f.v)
		}

		// Cross-check every pair in the domain against brute force.
		var hits uint64
		for u1 := 0; u1 < nL; u1++ {
			for u2 := 0; u2 < nR; u2++ {
				p := pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
				want := ref.lookup(p)
				if got := base.Lookup(p); got != want {
					t.Fatalf("trial=%d: Lookup(%v)=%v, brute force says %v", trial, p, got, want)
				}
				if want != Unknown {
					hits++
				}
			}
		}
		if got, want := base.Stats(), (Stats{Hits: hits, Unions: ref.distinctMatches()}); got != want {
			t.Fatalf("trial=%d: Stats %+v, brute force says %+v", trial, got, want)
		}

		// Any permutation of the same answers yields the same Snapshot.
		want := base.Snapshot()
		if !reflect.DeepEqual(want.Partners1, want.Partners2) {
			t.Fatalf("trial=%d: partner maps disagree\n%v\n%v", trial, want.Partners1, want.Partners2)
		}
		for perm := 0; perm < 4; perm++ {
			shuffled := append([]fact(nil), facts...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			st := New()
			for _, f := range shuffled {
				if !st.Record(f.p, f.v) {
					t.Fatalf("trial=%d perm=%d: %v/%v rejected", trial, perm, f.p, f.v)
				}
			}
			if got := st.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial=%d perm=%d: snapshot diverged\n got %+v\nwant %+v", trial, perm, got, want)
			}
		}
	}
}

// TestStatsMonotonicUnderConcurrentScrape exercises the documented
// concurrency contract under -race: Stats may be read while a single
// writer records, and every counter is monotonic.
func TestStatsMonotonicUnderConcurrentScrape(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Hits < last.Hits || st.Unions < last.Unions || st.Conflicts < last.Conflicts {
				t.Error("Stats went backwards")
				return
			}
			last = st
		}
	}()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := pair.Pair{U1: kb.EntityID(rng.Intn(50)), U2: kb.EntityID(rng.Intn(50))}
		if rng.Intn(2) == 0 {
			s.Record(p, Match)
		} else {
			s.Record(p, NonMatch)
		}
		s.Lookup(p)
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Hits == 0 || st.Unions == 0 || st.Conflicts == 0 {
		t.Fatalf("expected some hits, unions and conflicts, got %+v", st)
	}
}

// TestConflictErrors pins the three contradiction shapes Record rejects:
// each returns false, counts one conflict and leaves the store unchanged.
func TestConflictErrors(t *testing.T) {
	p := func(a, b int) pair.Pair { return pair.Pair{U1: kb.EntityID(a), U2: kb.EntityID(b)} }
	s := New()
	for _, f := range []fact{{p(0, 0), Match}, {p(1, 1), NonMatch}, {p(0, 0), Match}, {p(1, 1), NonMatch}} {
		if !s.Record(f.p, f.v) {
			t.Fatalf("Record(%v, %v) rejected", f.p, f.v)
		}
	}
	for i, f := range []fact{
		{p(0, 1), Match},    // U1 0 already has a partner
		{p(1, 0), Match},    // U2 0 already has a partner
		{p(1, 1), Match},    // a recorded non-match
		{p(0, 0), NonMatch}, // a recorded match
		{p(2, 2), Unknown},  // not a fact
	} {
		before := s.Snapshot()
		if s.Record(f.p, f.v) {
			t.Fatalf("Record(%v, %v) accepted", f.p, f.v)
		}
		if got := s.Snapshot(); !reflect.DeepEqual(got, before) {
			t.Fatalf("rejected Record(%v, %v) mutated the store:\nbefore %+v\nafter  %+v", f.p, f.v, before, got)
		}
		if got := s.Stats(); got != (Stats{Unions: 1, Conflicts: uint64(i + 1)}) {
			t.Fatalf("after rejecting Record(%v, %v): Stats %+v", f.p, f.v, got)
		}
	}
	if v := s.Lookup(p(0, 1)); v != NonMatch {
		t.Fatalf("1:1 matched-elsewhere lookup: got %v", v)
	}
}

// FuzzDeduceRecord: arbitrary interleavings of match/non-match verdicts
// over a small entity domain (so contradictions are common) never panic.
// A Record is rejected exactly when the brute-force oracle already
// implies the opposite verdict, a rejected Record leaves the store
// unchanged, and the counters follow the oracle.
func FuzzDeduceRecord(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 2, 0, 0, 3})
	f.Add([]byte{0, 9, 9, 1, 9, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*100 {
			data = data[:3*100] // keep the cubic reference oracle affordable
		}
		s := New()
		ref := &refOracle{}
		var hits, rejected uint64
		for i := 0; i+2 < len(data); i += 3 {
			p := pair.Pair{U1: kb.EntityID(data[i] % 6), U2: kb.EntityID(data[i+1] % 6)}
			v := Match
			if data[i+2]&1 == 1 {
				v = NonMatch
			}
			implied := ref.lookup(p)
			before := s.Snapshot()
			if !s.Record(p, v) {
				if implied == Unknown || implied == v {
					t.Fatalf("Record(%v,%v) rejected, brute force implies %v", p, v, implied)
				}
				if got := s.Snapshot(); !reflect.DeepEqual(got, before) {
					t.Fatalf("rejected Record(%v,%v) mutated the store:\nbefore %+v\nafter  %+v", p, v, before, got)
				}
				rejected++
			} else {
				if implied != Unknown && implied != v {
					t.Fatalf("Record(%v,%v) accepted, brute force implies %v", p, v, implied)
				}
				ref.record(p, v)
			}
			got := s.Lookup(p)
			hits++
			if want := ref.lookup(p); got != want {
				t.Fatalf("Lookup(%v)=%v disagrees with brute force %v", p, got, want)
			}
			if st := s.Stats(); st != (Stats{Hits: hits, Unions: ref.distinctMatches(), Conflicts: rejected}) {
				t.Fatalf("after Record(%v,%v): Stats %+v, want hits=%d unions=%d conflicts=%d",
					p, v, st, hits, ref.distinctMatches(), rejected)
			}
		}
	})
}

// Snapshot is a canonical dump of the store's state: the recorded
// matches as read from each partner map, and the recorded non-matches,
// all sorted. Two stores fed the same consistent facts in any order
// produce identical Snapshots (asserted by the property suite), and a
// rejected Record leaves the Snapshot unchanged (asserted by the fuzz
// harness). It is the tests' probe; nothing else reads a store whole.
type Snapshot struct {
	Partners1, Partners2 []pair.Pair
	NonMatches           []pair.Pair
}

// Snapshot captures the store's canonical state.
func (s *Store) Snapshot() Snapshot {
	p1, p2 := pair.NewSet(), pair.NewSet()
	for u1, u2 := range s.partner1 {
		p1.Add(pair.Pair{U1: u1, U2: u2})
	}
	for u2, u1 := range s.partner2 {
		p2.Add(pair.Pair{U1: u1, U2: u2})
	}
	return Snapshot{Partners1: p1.Sorted(), Partners2: p2.Sorted(), NonMatches: s.nonmatches.Sorted()}
}
