// Package deduce implements answer deduction over confirmed crowd
// answers, after "Leveraging Transitive Relations for Crowdsourced
// Joins" (Wang et al.): match(a,b) ∧ match(b,c) ⇒ match(a,c), and
// match(a,b) ∧ non-match(b,c) ⇒ non-match(a,c). Under the paper's 1:1
// entity constraint every match cluster is a single (K1, K2) pair, so
// the transitive closure adds nothing beyond "an entity matched
// elsewhere excludes this pair": the Store keeps each entity's partner
// and the recorded non-matches, and a Lookup answers in constant time
// whether a pair's verdict is already implied by recorded answers.
//
// The Store's state and every Lookup verdict are a pure function of the
// accepted facts; which facts are accepted is a function of the order
// they arrive in only when they contradict each other.
//
// A Store is not safe for concurrent use; callers synchronize. The
// monotonic Stats counters are atomics so metric scrapes may read them
// without holding the caller's lock.
package deduce

import (
	"sync/atomic"

	"repro/internal/kb"
	"repro/internal/pair"
)

// Verdict is the deduction outcome for a pair.
type Verdict int

// Verdict values. Unknown means the recorded answers imply nothing
// about the pair.
const (
	Unknown Verdict = iota
	Match
	NonMatch
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Match:
		return "match"
	case NonMatch:
		return "non-match"
	default:
		return "unknown"
	}
}

// Stats are monotonic counters suitable for Prometheus-style
// counter families. They only ever increase.
type Stats struct {
	// Hits counts Lookup calls that returned Match or NonMatch.
	Hits uint64
	// Unions counts match facts recorded (re-recordings not included).
	Unions uint64
	// Conflicts counts Record calls rejected as contradicting the store.
	Conflicts uint64
}

// Store is the deduction index. The zero value is not usable; construct
// with New.
type Store struct {
	// partner1 maps a matched U1 entity to its U2 partner, partner2 the
	// reverse; together they hold every recorded match.
	partner1, partner2 map[kb.EntityID]kb.EntityID
	nonmatches         pair.Set

	hits      atomic.Uint64
	unions    atomic.Uint64
	conflicts atomic.Uint64
}

// New returns an empty Store.
func New() *Store {
	return &Store{
		partner1:   make(map[kb.EntityID]kb.EntityID),
		partner2:   make(map[kb.EntityID]kb.EntityID),
		nonmatches: pair.NewSet(),
	}
}

// Stats returns the current monotonic counters. Safe to call
// concurrently with Record/Lookup on other goroutines.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Unions:    s.unions.Load(),
		Conflicts: s.conflicts.Load(),
	}
}

// matched reports whether p is a recorded match, and partnered whether
// either endpoint has a partner at all.
func (s *Store) matched(p pair.Pair) (matched, partnered bool) {
	u2, ok1 := s.partner1[p.U1]
	_, ok2 := s.partner2[p.U2]
	return ok1 && u2 == p.U2, ok1 || ok2
}

// Record adds one confirmed answer, v Match or NonMatch, and reports
// whether the store accepted it. Re-recording a held fact is accepted
// and changes nothing. Record rejects a match whose endpoint already has
// another partner, a match on a recorded non-match, a non-match on a
// recorded match, and any other verdict; a rejected call is counted in
// Stats.Conflicts and leaves the store unchanged.
func (s *Store) Record(p pair.Pair, v Verdict) bool {
	matched, partnered := s.matched(p)
	switch {
	case v == Match && matched, v == NonMatch && s.nonmatches.Has(p):
		return true
	case v == Match && !partnered && !s.nonmatches.Has(p):
		s.partner1[p.U1], s.partner2[p.U2] = p.U2, p.U1
		s.unions.Add(1)
		return true
	case v == NonMatch && !matched:
		s.nonmatches.Add(p)
		return true
	}
	s.conflicts.Add(1)
	return false
}

// Lookup reports the verdict the recorded answers imply for p: Match
// when p is a recorded match, NonMatch when either endpoint is matched
// elsewhere or p is a recorded non-match, Unknown otherwise.
func (s *Store) Lookup(p pair.Pair) Verdict {
	matched, partnered := s.matched(p)
	switch {
	case matched:
		s.hits.Add(1)
		return Match
	case partnered || s.nonmatches.Has(p):
		s.hits.Add(1)
		return NonMatch
	}
	return Unknown
}
