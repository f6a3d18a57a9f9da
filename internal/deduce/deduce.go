// Package deduce implements transitive-closure answer deduction over
// confirmed crowd answers, after "Leveraging Transitive Relations for
// Crowdsourced Joins" (Wang et al.): match(a,b) ∧ match(b,c) ⇒
// match(a,c), and match(a,b) ∧ non-match(b,c) ⇒ non-match(a,c). The
// Store keeps an incremental union-find over confirmed matches plus
// per-cluster-pair conflict edges for confirmed non-matches, so a
// Lookup answers in near-constant time whether a pair's verdict is
// already implied by previously recorded answers.
//
// Determinism: the Store's observable state — its cluster partition and
// fact sets (the tests' Snapshot), Lookup verdicts and provenance chains —
// is a pure function of the *set* of recorded (pair, verdict) facts,
// independent of the order they were recorded in. Cluster roots are canonical (the minimum node of each cluster),
// conflict witnesses are the lexicographically minimal recorded
// non-match pair between two clusters, and all iteration that reaches
// the output is sorted. This is what lets sharded and out-of-order
// sessions that deduce stay byte-identical to a synchronous oracle.
//
// A Store is not safe for concurrent use; callers synchronize. The
// monotonic Stats counters are atomics so metric scrapes may read them
// without holding the caller's lock.
package deduce

import (
	"fmt"
	"sort"
	"sync/atomic"

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

// Mode selects how much the Store is allowed to infer.
type Mode int

const (
	// General deduces only what transitivity licenses: matches form
	// clusters, and a recorded non-match separates two whole clusters.
	General Mode = iota
	// OneToOne additionally enforces the paper's 1:1 constraint: each
	// entity matches at most one entity on the other side, so a second
	// match for an already-matched entity is a conflict, and
	// Lookup(a,b) deduces NonMatch when a or b is matched elsewhere.
	OneToOne
)

// ConflictError is returned by Record when the new fact contradicts
// what the store has already deduced. The store is left exactly as it
// was before the call.
type ConflictError struct {
	// Pair is the rejected pair and Verdict the rejected verdict.
	Pair    pair.Pair
	Verdict Verdict
	// Witness is the provenance chain of recorded answers that implies
	// the opposite verdict (or, under OneToOne, the chain matching one
	// endpoint elsewhere).
	Witness []pair.Pair
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("deduce: recording %v as %s contradicts %d prior answer(s) %v",
		e.Pair, e.Verdict, len(e.Witness), e.Witness)
}

// Stats are monotonic counters suitable for Prometheus-style
// counter families. They only ever increase.
type Stats struct {
	// Hits counts Lookup calls that returned Match or NonMatch.
	Hits uint64
	// Unions counts cluster-merge operations performed by Record.
	Unions uint64
	// Conflicts counts distinct cluster-pair conflict edges created by
	// recorded non-matches (cumulative; edges merged when clusters
	// merge are not un-counted).
	Conflicts uint64
}

// node encodes a KB-qualified entity: U1 entities on bit 0 = 0, U2
// entities on bit 0 = 1. The two KBs have independent dense ID spaces,
// so the side bit keeps them from colliding.
type node int64

func leftNode(id int32) node  { return node(id) << 1 }
func rightNode(id int32) node { return node(id)<<1 | 1 }

// edge is one recorded match adjacency, remembering the answered pair
// that created it for provenance reconstruction.
type edge struct {
	to  node
	via pair.Pair
}

// Store is the incremental deduction index. The zero value is not
// usable; construct with New.
type Store struct {
	mode Mode

	// parent is the union-find forest over nodes that appeared in at
	// least one recorded answer. A node absent from the map is its own
	// root. Roots are canonical: find returns the minimum node of the
	// cluster, so the partition's representation is order-independent.
	parent map[node]node

	// adj holds every recorded match pair as two directed edges; the
	// full edge set (not a spanning subset) keeps provenance search
	// order-independent.
	adj map[node][]edge

	// matches and nonmatches are the recorded fact sets; re-recording
	// a known fact is a no-op, which keeps the state order-independent.
	matches    pair.Set
	nonmatches pair.Set

	// conflicts maps root → (other root → minimal witness non-match
	// pair between the two clusters). Symmetric: both directions are
	// stored. Witnesses are minimal over all recorded non-matches
	// between the clusters, so they are order-independent too.
	conflicts map[node]map[node]pair.Pair

	// sideMin maps a cluster root to the minimum member node on each
	// side ([0] = U1, [1] = U2), or -1 when the cluster has none.
	// Under OneToOne the invariant is at most one member per side, so
	// the minimum is the member; minima are order-independent.
	sideMin map[node][2]node

	hits      atomic.Uint64
	unions    atomic.Uint64
	conflictN atomic.Uint64
}

// New returns an empty Store operating in the given mode.
func New(mode Mode) *Store {
	return &Store{
		mode:       mode,
		parent:     make(map[node]node),
		adj:        make(map[node][]edge),
		matches:    pair.NewSet(),
		nonmatches: pair.NewSet(),
		conflicts:  make(map[node]map[node]pair.Pair),
		sideMin:    make(map[node][2]node),
	}
}

// Stats returns the current monotonic counters. Safe to call
// concurrently with Record/Lookup on other goroutines.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Unions:    s.unions.Load(),
		Conflicts: s.conflictN.Load(),
	}
}

// find returns the canonical root of n without mutating the forest
// (nodes never recorded are their own roots).
func (s *Store) find(n node) node {
	for {
		p, ok := s.parent[n]
		if !ok || p == n {
			return n
		}
		n = p
	}
}

// compress re-points every node on n's chain directly at root. Called
// only from Record, which already holds mutation rights.
func (s *Store) compress(n, root node) {
	for n != root {
		p, ok := s.parent[n]
		if !ok {
			break
		}
		s.parent[n] = root
		n = p
	}
}

// Record adds one confirmed answer. v must be Match or NonMatch.
// Re-recording a fact the store already holds (or that is already
// implied) is a no-op. If the fact contradicts the store, Record
// returns a *ConflictError and leaves the store untouched.
func (s *Store) Record(p pair.Pair, v Verdict) error {
	a, b := leftNode(int32(p.U1)), rightNode(int32(p.U2))
	ra, rb := s.find(a), s.find(b)

	switch v {
	case Match:
		return s.recordMatch(p, a, b, ra, rb)
	case NonMatch:
		return s.recordNonMatch(p, a, b, ra, rb)
	default:
		return fmt.Errorf("deduce: Record(%v) needs Match or NonMatch, got %s", p, v)
	}
}

func (s *Store) recordMatch(p pair.Pair, a, b, ra, rb node) error {
	// Validate fully before any mutation so a conflict leaves the
	// store byte-identical (asserted by the fuzz harness).
	if ra != rb {
		if wit, ok := s.conflicts[ra][rb]; ok {
			return &ConflictError{Pair: p, Verdict: Match, Witness: s.separationChain(a, b, wit)}
		}
		if s.mode == OneToOne {
			// Merging must not give any entity a second partner: b's
			// cluster may not already hold a U1 entity (b is matched
			// elsewhere), nor a's cluster a U2 entity.
			if l := s.sideOf(rb, 0); l >= 0 {
				return &ConflictError{Pair: p, Verdict: Match, Witness: s.matchChain(l, b)}
			}
			if r := s.sideOf(ra, 1); r >= 0 {
				return &ConflictError{Pair: p, Verdict: Match, Witness: s.matchChain(a, r)}
			}
		}
	}

	if s.matches.Has(p) {
		return nil
	}
	s.matches.Add(p)
	s.adj[a] = append(s.adj[a], edge{to: b, via: p})
	s.adj[b] = append(s.adj[b], edge{to: a, via: p})
	if ra == rb {
		return nil // already same cluster; edge kept for provenance
	}

	// Union with canonical min root, then fold rb-side conflict edges
	// into the new root, keeping the minimal witness per cluster pair.
	root, other := ra, rb
	if other < root {
		root, other = other, root
	}
	s.parent[other] = root
	if _, ok := s.parent[root]; !ok {
		s.parent[root] = root
	}
	s.compress(a, root)
	s.compress(b, root)
	s.unions.Add(1)

	merged := mergeSides(s.sides(ra), s.sides(rb))
	merged = mergeSides(merged, sidesOf(a))
	merged = mergeSides(merged, sidesOf(b))
	delete(s.sideMin, other)
	s.sideMin[root] = merged

	if moved := s.conflicts[other]; moved != nil {
		delete(s.conflicts, other)
		for peer, wit := range moved {
			delete(s.conflicts[peer], other)
			s.linkConflict(root, peer, wit, false)
		}
	}
	return nil
}

func (s *Store) recordNonMatch(p pair.Pair, a, b, ra, rb node) error {
	if ra == rb {
		return &ConflictError{Pair: p, Verdict: NonMatch, Witness: s.matchChain(a, b)}
	}
	if s.nonmatches.Has(p) {
		return nil
	}
	s.nonmatches.Add(p)
	s.linkConflict(ra, rb, p, true)
	// Nodes only named by non-matches still need to exist as roots so
	// later unions fold their conflict edges correctly.
	for _, n := range [2]node{a, b} {
		if _, ok := s.parent[n]; !ok {
			s.parent[n] = n
			s.sideMin[n] = sidesOf(n)
		}
	}
	return nil
}

// linkConflict installs (or tightens) the conflict edge between two
// cluster roots, keeping the lexicographically minimal witness. count
// distinguishes brand-new recorded edges from edges folded by a union.
func (s *Store) linkConflict(ra, rb node, wit pair.Pair, count bool) {
	fresh := false
	for _, dir := range [2][2]node{{ra, rb}, {rb, ra}} {
		m := s.conflicts[dir[0]]
		if m == nil {
			m = make(map[node]pair.Pair)
			s.conflicts[dir[0]] = m
		}
		if old, ok := m[dir[1]]; !ok || wit.Less(old) {
			if !ok {
				fresh = true
			}
			m[dir[1]] = wit
		}
	}
	if fresh && count {
		s.conflictN.Add(1)
	}
}

// noSides is the sideMin value of a cluster with no known members.
var noSides = [2]node{-1, -1}

// sides returns the per-side minimum members of the cluster rooted at
// root; a root never recorded has none (the node itself only joins the
// bookkeeping once a fact names it).
func (s *Store) sides(root node) [2]node {
	if v, ok := s.sideMin[root]; ok {
		return v
	}
	return noSides
}

// sideOf returns the cluster's minimum member on side (0 = U1,
// 1 = U2), or -1 when it has none.
func (s *Store) sideOf(root node, side int) node { return s.sides(root)[side] }

// mergeSides combines two side-minimum vectors, keeping per-side
// minima (-1 means absent).
func mergeSides(a, b [2]node) [2]node {
	for i := range a {
		if a[i] < 0 || (b[i] >= 0 && b[i] < a[i]) {
			a[i] = b[i]
		}
	}
	return a
}

// sidesOf is the side vector of a single node.
func sidesOf(n node) [2]node {
	v := noSides
	v[n&1] = n
	return v
}

// Lookup reports the verdict the recorded answers imply for p, with a
// provenance chain: recorded pairs whose conjunction yields the
// verdict. For Match the chain is a path of recorded matches from p.U1
// to p.U2; for NonMatch it is a match path, one recorded non-match,
// and a second match path (either path may be empty); under OneToOne
// it may instead be the chain matching one endpoint elsewhere. The
// chain is nil when the verdict is Unknown.
func (s *Store) Lookup(p pair.Pair) (Verdict, []pair.Pair) {
	a, b := leftNode(int32(p.U1)), rightNode(int32(p.U2))
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		s.hits.Add(1)
		return Match, s.matchChain(a, b)
	}
	if wit, ok := s.conflicts[ra][rb]; ok {
		s.hits.Add(1)
		return NonMatch, s.separationChain(a, b, wit)
	}
	if s.mode == OneToOne {
		if m := s.sideOf(ra, 1); m >= 0 { // p.U1 already matched to some U2
			s.hits.Add(1)
			return NonMatch, s.matchChain(a, m)
		}
		if m := s.sideOf(rb, 0); m >= 0 { // p.U2 already matched to some U1
			s.hits.Add(1)
			return NonMatch, s.matchChain(b, m)
		}
	}
	return Unknown, nil
}

// matchChain returns the recorded pairs along a deterministic shortest
// path of match edges from x to y (empty when x == y). Both must lie
// in the same cluster.
func (s *Store) matchChain(x, y node) []pair.Pair {
	if x == y {
		return nil
	}
	// BFS with sorted neighbor expansion: the discovered path is the
	// shortest, ties broken toward smaller nodes, so provenance is a
	// function of the recorded edge set only.
	type step struct {
		from node
		via  pair.Pair
	}
	prev := map[node]step{x: {from: x}}
	frontier := []node{x}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			out := append([]edge(nil), s.adj[n]...)
			sort.Slice(out, func(i, j int) bool {
				if out[i].to != out[j].to {
					return out[i].to < out[j].to
				}
				return out[i].via.Less(out[j].via)
			})
			for _, e := range out {
				if _, seen := prev[e.to]; seen {
					continue
				}
				prev[e.to] = step{from: n, via: e.via}
				if e.to == y {
					var chain []pair.Pair
					for at := y; at != x; at = prev[at].from {
						chain = append(chain, prev[at].via)
					}
					for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
						chain[i], chain[j] = chain[j], chain[i]
					}
					return chain
				}
				next = append(next, e.to)
			}
		}
		frontier = next
	}
	return nil
}

// separationChain builds the NonMatch provenance for nodes a, b in
// distinct clusters separated by the recorded non-match wit: the match
// path from a to wit's endpoint in a's cluster, wit itself, then the
// match path from wit's other endpoint to b.
func (s *Store) separationChain(a, b node, wit pair.Pair) []pair.Pair {
	wa, wb := leftNode(int32(wit.U1)), rightNode(int32(wit.U2))
	if s.find(wa) != s.find(a) {
		wa, wb = wb, wa
	}
	chain := s.matchChain(a, wa)
	chain = append(chain, wit)
	return append(chain, s.matchChain(wb, b)...)
}
