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
// and Deduce-enabled sessions consult it (through deduce) before posting a
// question whose verdict the namespace's answers already imply.
type Cache struct {
	mu           sync.Mutex
	answers      map[pair.Pair][]crowd.Label
	reserved     map[pair.Pair]string // pending pair → owning session ID
	k1, k2       string               // canonical KB orientation ("" until a session attaches)
	oriented     bool
	ded          *deduce.Store
	hits         atomic.Int64
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

// answer returns the cached labels for q, counting a hit.
func (c *Cache) answer(q pair.Pair) ([]crowd.Label, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels, ok := c.answers[q]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return labels, ok
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

// deduce returns the verdict the namespace's recorded answers imply for
// q, or deduce.Unknown. A hit counts into the deduction store's stats.
func (c *Cache) deduce(q pair.Pair) deduce.Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ded.Lookup(q)
}

// DeduceStats returns the namespace deduction-store counters.
func (c *Cache) DeduceStats() deduce.Stats { return c.ded.Stats() }

// reserve claims q for owner. It reports whether owner holds the claim and
// should publish the question; false means the pair is already answered
// (the caller picks it up on its next drain) or in flight in a sibling.
func (c *Cache) reserve(q pair.Pair, owner string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, answered := c.answers[q]; answered {
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

// Misses returns how many answer lookups found nothing cached.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Reservations returns how many question reservations were granted to
// sessions over the cache's lifetime (released reservations included).
func (c *Cache) Reservations() int64 { return c.reservations.Load() }
