package session

import (
	"sync"
	"sync/atomic"

	"repro/internal/crowd"
	"repro/internal/deduce"
	"repro/internal/pair"
)

// Cache shares crowd answers across the sessions of one namespace so a
// pair is answered by workers at most once, no matter how many concurrent
// sessions ask about it. An entry is either answered — the labels are
// served to every session that opens the pair — or reserved: some session
// has published the pair in a NextBatch and its answer is still pending,
// so sibling sessions withhold the pair from their own batches instead of
// re-posting it.
//
// Reservations are keyed by session ID and released when the answer
// arrives, when the owning session finishes, or when the Manager removes
// the owner — so an abandoned session cannot starve its siblings forever.
//
// Keys are in the namespace's canonical KB orientation: the first session
// to attach registers its (KB1, KB2) names via orient, and a session
// prepared over the same dataset with the KBs swapped flips its pairs on
// every cache operation. The cache also maintains the namespace deduction
// store: every definitive answer is recorded as a deduction fact,
// and Deduce-enabled sessions consult it (through answer and reserve)
// before posting a question whose verdict the namespace's answers imply.
type Cache struct {
	mu           sync.Mutex
	answers      map[pair.Pair][]crowd.Label
	reserved     map[pair.Pair]string // pending pair → owning session ID
	k1, k2       string               // canonical KB orientation ("" until a session attaches)
	oriented     bool
	ded          *deduce.Store
	hits         atomic.Int64
	deduced      atomic.Int64
	misses       atomic.Int64
	reservations atomic.Int64
}

// NewCache returns an empty answer cache.
func NewCache() *Cache {
	return &Cache{
		answers:  make(map[pair.Pair][]crowd.Label),
		reserved: make(map[pair.Pair]string),
		ded:      deduce.New(),
	}
}

// orient registers a session's KB orientation and reports whether the
// session must flip its pairs to match the cache's canonical orientation
// (its KB names are the reverse of the first-registered session's). A
// pipeline over different KBs than the namespace's shares keys blindly,
// as before — namespaces are a dataset convention the caller owns.
func (c *Cache) orient(k1, k2 string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.oriented {
		c.k1, c.k2, c.oriented = k1, k2, true
		return false
	}
	return k1 != k2 && k1 == c.k2 && k2 == c.k1
}

// answer returns the tier's answer for q and counts it: a sibling's
// labels (a hit), else — when deducing — the synthesized label of the
// verdict the namespace's recorded answers imply (a deduction hit), else
// nothing (a miss).
func (c *Cache) answer(q pair.Pair, deducing bool) ([]crowd.Label, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels, n := c.lookup(q, deducing)
	n.Add(1)
	return labels, n != &c.misses
}

// lookup finds the tier's answer for q without counting it, and names the
// counter it would count into. The store's own Lookup count is not the
// tier's: NextBatch probes through reserve. Callers hold c.mu.
func (c *Cache) lookup(q pair.Pair, deducing bool) ([]crowd.Label, *atomic.Int64) {
	if labels, ok := c.answers[q]; ok {
		return labels, &c.hits
	}
	if deducing {
		if v := c.ded.Lookup(q); v != deduce.Unknown {
			return deducedLabels(v), &c.deduced
		}
	}
	return nil, &c.misses
}

// put stores the answer for q (first answer wins, so every session sees
// the same labels) and clears any reservation. Definitive answers are
// also recorded into the namespace deduction store: the verdict a
// prior-free truth inference assigns the labels becomes a fact siblings
// can deduce from. Synthesized deduced answers are not re-recorded (the
// fact that produced them is already in the store), and a contradictory
// fact from an inconsistent crowd is rejected and counted as a conflict —
// the store keeps the first fact, deterministically.
func (c *Cache) put(q pair.Pair, labels []crowd.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.answers[q]; !dup {
		c.answers[q] = labels
		if v := answerVerdict(labels); v != deduce.Unknown {
			c.ded.Record(q, v)
		}
	}
	delete(c.reserved, q)
}

// answerVerdict maps an answer's labels to the deduction fact they
// support: the verdict of truth inference from an uninformative prior.
// Unresolved label sets, empty answers and synthesized deduced answers
// record nothing.
func answerVerdict(labels []crowd.Label) deduce.Verdict {
	if len(labels) == 0 || labels[0].WorkerID == DeducedWorkerID {
		return deduce.Unknown
	}
	switch crowd.Infer(0.5, labels, crowd.DefaultThresholds()).Verdict {
	case crowd.IsMatch:
		return deduce.Match
	case crowd.IsNonMatch:
		return deduce.NonMatch
	}
	return deduce.Unknown
}

// DeduceStats returns the namespace deduction-store counters, with Hits
// the deduced answers the tier supplied to sessions.
func (c *Cache) DeduceStats() deduce.Stats {
	st := c.ded.Stats()
	st.Hits = uint64(c.deduced.Load())
	return st
}

// reserve claims q for owner. It reports whether owner holds the claim and
// should publish the question; false means the tier can answer the pair —
// a sibling answered it or, when deducing, the namespace's answers imply
// its verdict — and the caller drains it once its cursor reaches it, or
// that the pair is in flight in a sibling.
func (c *Cache) reserve(q pair.Pair, owner string, deducing bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, n := c.lookup(q, deducing); n != &c.misses {
		return false
	}
	if held, ok := c.reserved[q]; ok {
		return held == owner
	}
	c.reserved[q] = owner
	c.reservations.Add(1)
	return true
}

// releaseOwned drops every reservation held by owner.
func (c *Cache) releaseOwned(owner string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for q, held := range c.reserved {
		if held == owner {
			delete(c.reserved, q)
		}
	}
}

// Hits returns how many times a cached answer was served to a session.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns how many answer lookups the tier could not answer.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Reservations returns how many question reservations were granted to
// sessions over the cache's lifetime (released reservations included).
func (c *Cache) Reservations() int64 { return c.reservations.Load() }
