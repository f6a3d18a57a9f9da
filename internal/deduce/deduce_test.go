package deduce

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

// refOracle is the brute-force reference: it recomputes the transitive
// closure from scratch on every query, with none of the Store's
// incremental structures, so agreement is meaningful.
type refOracle struct {
	mode       Mode
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

// clusterOf floods match edges from n and returns the reachable set.
func (r *refOracle) clusterOf(n node) map[node]bool {
	seen := map[node]bool{n: true}
	for changed := true; changed; {
		changed = false
		for _, m := range r.matches {
			a, b := leftNode(int32(m.U1)), rightNode(int32(m.U2))
			if seen[a] != seen[b] {
				seen[a], seen[b] = true, true
				changed = true
			}
		}
	}
	return seen
}

func (r *refOracle) lookup(p pair.Pair) Verdict {
	a, b := leftNode(int32(p.U1)), rightNode(int32(p.U2))
	ca := r.clusterOf(a)
	if ca[b] {
		return Match
	}
	cb := r.clusterOf(b)
	for _, nm := range r.nonmatches {
		x, y := leftNode(int32(nm.U1)), rightNode(int32(nm.U2))
		if (ca[x] && cb[y]) || (ca[y] && cb[x]) {
			return NonMatch
		}
	}
	if r.mode == OneToOne {
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
	}
	return Unknown
}

type fact struct {
	p pair.Pair
	v Verdict
}

// genFacts builds a random consistent answer stream: a ground-truth
// clustering of nL+nR entities, then sampled pairs labeled from it.
// In OneToOne mode every cluster keeps at most one entity per side.
func genFacts(rng *rand.Rand, mode Mode, nL, nR, clusters, samples int) []fact {
	clusterL := make([]int, nL)
	for i := range clusterL {
		clusterL[i] = rng.Intn(clusters)
	}
	clusterR := make([]int, nR)
	for i := range clusterR {
		clusterR[i] = rng.Intn(clusters)
	}
	if mode == OneToOne {
		// A permutation matching: left i pairs with right i when both
		// land in the same cluster id; everything else is distinct.
		for i := range clusterL {
			clusterL[i] = i
		}
		for i := range clusterR {
			if i < nL && rng.Intn(2) == 0 {
				clusterR[i] = i // matched to left i
			} else {
				clusterR[i] = nL + i // unmatched
			}
		}
	}
	var facts []fact
	for len(facts) < samples {
		p := pair.Pair{U1: kb.EntityID(rng.Intn(nL)), U2: kb.EntityID(rng.Intn(nR))}
		if clusterL[p.U1] == clusterR[p.U2] {
			facts = append(facts, fact{p, Match})
		} else {
			facts = append(facts, fact{p, NonMatch})
		}
	}
	return facts
}

// checkChain asserts a provenance chain really proves the verdict:
// every link is a recorded fact, and the links connect p's endpoints
// (for NonMatch, via exactly one recorded non-match).
func checkChain(t *testing.T, s *Store, p pair.Pair, v Verdict, chain []pair.Pair) {
	t.Helper()
	if v == Unknown {
		if chain != nil {
			t.Fatalf("Lookup(%v)=Unknown but chain %v", p, chain)
		}
		return
	}
	nonmatches := 0
	for _, link := range chain {
		switch {
		case s.matches.Has(link):
		case s.nonmatches.Has(link):
			nonmatches++
		default:
			t.Fatalf("Lookup(%v) chain link %v was never recorded", p, link)
		}
	}
	// Walk the chain as a node path: each link must touch the frontier
	// node and advance it.
	walk := func(start node) (node, bool) {
		at := start
		for _, link := range chain {
			la, lb := leftNode(int32(link.U1)), rightNode(int32(link.U2))
			switch at {
			case la:
				at = lb
			case lb:
				at = la
			default:
				return at, false
			}
		}
		return at, true
	}
	switch v {
	case Match:
		end, ok := walk(leftNode(int32(p.U1)))
		if nonmatches != 0 || !ok || end != rightNode(int32(p.U2)) {
			t.Fatalf("Lookup(%v)=Match chain %v is not a match path U1→U2", p, chain)
		}
	case NonMatch:
		if nonmatches > 1 {
			t.Fatalf("Lookup(%v)=NonMatch chain %v has %d non-matches", p, chain, nonmatches)
		}
		if nonmatches == 1 {
			// Direct separation: a connected path U1→U2 crossing
			// exactly one recorded non-match.
			end, ok := walk(leftNode(int32(p.U1)))
			if !ok || end != rightNode(int32(p.U2)) {
				t.Fatalf("Lookup(%v)=NonMatch chain %v does not connect U1 to U2", p, chain)
			}
			return
		}
		// OneToOne matched-elsewhere: a non-empty match path rooted at
		// either endpoint, ending at the usurping partner.
		if s.mode != OneToOne || len(chain) == 0 {
			t.Fatalf("Lookup(%v)=NonMatch chain %v has no non-match link", p, chain)
		}
		if _, ok := walk(leftNode(int32(p.U1))); !ok {
			if _, ok := walk(rightNode(int32(p.U2))); !ok {
				t.Fatalf("Lookup(%v)=NonMatch chain %v is rooted at neither endpoint", p, chain)
			}
		}
	}
}

// TestPropertyAgainstBruteForce is the satellite-1 property suite: for
// randomized ground-truth clusterings and shuffled answer streams, the
// Store agrees with the brute-force closure oracle on every pair, its
// provenance chains prove their verdicts, and the final Snapshot is
// identical for every permutation of the same answers.
func TestPropertyAgainstBruteForce(t *testing.T) {
	for _, mode := range []Mode{General, OneToOne} {
		for trial := 0; trial < 25; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*int(mode) + trial)))
			nL, nR := 3+rng.Intn(10), 3+rng.Intn(10)
			facts := genFacts(rng, mode, nL, nR, 1+rng.Intn(5), 5+rng.Intn(40))

			ref := &refOracle{mode: mode}
			base := New(mode)
			for _, f := range facts {
				if err := base.Record(f.p, f.v); err != nil {
					t.Fatalf("mode=%v trial=%d: consistent fact %v/%v rejected: %v", mode, trial, f.p, f.v, err)
				}
				ref.record(f.p, f.v)
			}

			// Cross-check every pair in the domain against brute force.
			for u1 := 0; u1 < nL; u1++ {
				for u2 := 0; u2 < nR; u2++ {
					p := pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
					want := ref.lookup(p)
					got, chain := base.Lookup(p)
					if got != want {
						t.Fatalf("mode=%v trial=%d: Lookup(%v)=%v, brute force says %v", mode, trial, p, got, want)
					}
					checkChain(t, base, p, got, chain)
				}
			}

			// Any permutation of the same answers yields the same
			// Snapshot and the same verdicts.
			want := base.Snapshot()
			for perm := 0; perm < 4; perm++ {
				shuffled := append([]fact(nil), facts...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				st := New(mode)
				for _, f := range shuffled {
					if err := st.Record(f.p, f.v); err != nil {
						t.Fatalf("mode=%v trial=%d perm=%d: %v/%v rejected: %v", mode, trial, perm, f.p, f.v, err)
					}
				}
				if got := st.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("mode=%v trial=%d perm=%d: snapshot diverged\n got %+v\nwant %+v", mode, trial, perm, got, want)
				}
				for u1 := 0; u1 < nL; u1++ {
					for u2 := 0; u2 < nR; u2++ {
						p := pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
						gb, _ := base.Lookup(p)
						gs, _ := st.Lookup(p)
						if gb != gs {
							t.Fatalf("mode=%v trial=%d perm=%d: Lookup(%v) order-dependent: %v vs %v", mode, trial, perm, p, gb, gs)
						}
					}
				}
			}
		}
	}
}

// TestStatsMonotonicUnderConcurrentScrape exercises the documented
// concurrency contract under -race: Stats may be read while a single
// writer records, and every counter is monotonic.
func TestStatsMonotonicUnderConcurrentScrape(t *testing.T) {
	s := New(OneToOne)
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
			_ = s.Record(p, Match)
		} else {
			_ = s.Record(p, NonMatch)
		}
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Unions == 0 || st.Conflicts == 0 {
		t.Fatalf("expected some unions and conflicts, got %+v", st)
	}
}

// TestConflictErrors pins the typed-error contract on the three
// contradiction shapes.
func TestConflictErrors(t *testing.T) {
	p := func(a, b int) pair.Pair { return pair.Pair{U1: kb.EntityID(a), U2: kb.EntityID(b)} }

	s := New(General)
	mustRecord(t, s, p(0, 0), Match)
	mustRecord(t, s, p(1, 0), Match) // 0L,1L,0R one cluster
	err := s.Record(p(1, 0), NonMatch)
	ce, ok := err.(*ConflictError)
	if !ok || ce.Verdict != NonMatch || len(ce.Witness) == 0 {
		t.Fatalf("non-match of an implied match: got %v", err)
	}

	mustRecord(t, s, p(2, 1), NonMatch) // cluster{0L,1L,0R} vs cluster... 2L vs 1R
	mustRecord(t, s, p(2, 0), NonMatch) // 2L vs the big cluster
	err = s.Record(p(2, 0), Match)
	if ce, ok = err.(*ConflictError); !ok || ce.Verdict != Match {
		t.Fatalf("match across a conflict edge: got %v", err)
	}

	o := New(OneToOne)
	mustRecord(t, o, p(0, 0), Match)
	err = o.Record(p(0, 1), Match)
	if ce, ok = err.(*ConflictError); !ok || len(ce.Witness) == 0 {
		t.Fatalf("second partner under 1:1: got %v", err)
	}
	if v, chain := o.Lookup(p(0, 1)); v != NonMatch || len(chain) == 0 {
		t.Fatalf("1:1 matched-elsewhere lookup: got %v %v", v, chain)
	}
}

func mustRecord(t *testing.T, s *Store, p pair.Pair, v Verdict) {
	t.Helper()
	if err := s.Record(p, v); err != nil {
		t.Fatalf("Record(%v, %v): %v", p, v, err)
	}
}

// FuzzDeduceRecord is the satellite-2 fuzzer: arbitrary interleavings
// of match/non-match verdicts over a small entity domain (so
// contradictions are common) never panic, every rejected Record leaves
// the store byte-identical (snapshot compare), and every accepted
// Record keeps the store in agreement with the brute-force oracle on
// the recorded pair itself.
func FuzzDeduceRecord(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 2, 0, 0, 3})
	f.Add([]byte{0, 9, 9, 1, 9, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		mode := General
		if data[0]&1 == 1 {
			mode = OneToOne
		}
		if len(data) > 1+3*100 {
			data = data[:1+3*100] // keep the cubic reference oracle affordable
		}
		s := New(mode)
		ref := &refOracle{mode: mode}
		for i := 1; i+2 < len(data); i += 3 {
			p := pair.Pair{U1: kb.EntityID(data[i] % 6), U2: kb.EntityID(data[i+1] % 6)}
			v := Match
			if data[i+2]&1 == 1 {
				v = NonMatch
			}
			before := s.Snapshot()
			err := s.Record(p, v)
			if err != nil {
				if _, ok := err.(*ConflictError); !ok {
					t.Fatalf("Record(%v,%v): non-conflict error %v", p, v, err)
				}
				if got := s.Snapshot(); !reflect.DeepEqual(got, before) {
					t.Fatalf("rejected Record(%v,%v) mutated the store:\nbefore %+v\nafter  %+v", p, v, before, got)
				}
				continue
			}
			ref.record(p, v)
			got, chain := s.Lookup(p)
			if got != v {
				t.Fatalf("Lookup(%v) right after Record says %v, want %v", p, got, v)
			}
			checkChain(t, s, p, got, chain)
			if want := ref.lookup(p); got != want {
				t.Fatalf("Lookup(%v)=%v disagrees with brute force %v", p, got, want)
			}
		}
	})
}

// Snapshot is a canonical, order-independent dump of the store's
// state: the cluster partition plus the recorded fact sets. Two stores
// fed the same facts in any order produce identical Snapshots
// (asserted by the property suite), and a failed Record leaves the
// Snapshot unchanged (asserted by the fuzz harness). It is the tests'
// probe; nothing else reads a store whole.
type Snapshot struct {
	// Clusters lists every multi-node cluster as its sorted node keys,
	// ordered by first element.
	Clusters [][]int64
	// Matches and NonMatches are the recorded facts, sorted.
	Matches    []pair.Pair
	NonMatches []pair.Pair
}

// Snapshot captures the store's canonical state.
func (s *Store) Snapshot() Snapshot {
	groups := make(map[node][]int64)
	for n := range s.parent {
		r := s.find(n)
		groups[r] = append(groups[r], int64(n))
	}
	roots := make([]node, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	var clusters [][]int64
	for _, r := range roots {
		members := groups[r]
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		clusters = append(clusters, members)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	return Snapshot{
		Clusters:   clusters,
		Matches:    s.matches.Sorted(),
		NonMatches: s.nonmatches.Sorted(),
	}
}
