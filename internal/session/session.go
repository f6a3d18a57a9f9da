// Package session turns the core human–machine loop into resumable,
// concurrent resolution sessions — the asynchronous shape the paper's
// crowdsourcing setting actually has (§VII): a batch of µ questions is
// posted to a crowd platform and the answers trickle back out of order,
// possibly across process restarts.
//
// A Session wraps one core.Loop with locking, stable question IDs and an
// event-sourced JSON snapshot: the applied answers are recorded in
// application order, so Restore replays them through a fresh loop over
// the same pipeline and reaches a byte-identical state. A Manager runs many
// sessions concurrently and shares answers across sessions through a
// per-namespace Cache with reservations, so a pair answered (or merely in
// flight) in one session is never re-posted by another.
package session

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/deduce"
	"repro/internal/kb"
	"repro/internal/pair"
)

// State names the externally visible states of a Session; they mirror
// core.LoopState.
type State = core.LoopState

// Session states.
const (
	// StateAwaiting means a question batch is published and at least one
	// answer is outstanding (possibly reserved by a sibling session).
	StateAwaiting = core.LoopAwaiting
	// StateDone means the result is final.
	StateDone = core.LoopDone
)

// ErrNoLabels rejects an answer delivered without any worker label.
var ErrNoLabels = errors.New("session: answer carries no labels")

// Question is one published crowd question: a stable ID plus the entity
// pair it asks about.
type Question struct {
	// ID is the stable wire identifier, "u1-u2".
	ID string
	// Pair is the entity pair the question asks about.
	Pair pair.Pair
}

// QuestionID formats the stable wire identifier of a pair.
func QuestionID(q pair.Pair) string {
	return strconv.Itoa(int(q.U1)) + "-" + strconv.Itoa(int(q.U2))
}

// ParseQuestionID inverts QuestionID.
func ParseQuestionID(id string) (pair.Pair, error) {
	u1s, u2s, ok := strings.Cut(id, "-")
	if !ok {
		return pair.Pair{}, fmt.Errorf("session: malformed question id %q (want \"u1-u2\")", id)
	}
	u1, err1 := strconv.Atoi(u1s)
	u2, err2 := strconv.Atoi(u2s)
	if err1 != nil || err2 != nil || u1 < 0 || u2 < 0 {
		return pair.Pair{}, fmt.Errorf("session: malformed question id %q (want \"u1-u2\")", id)
	}
	return pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}, nil
}

// DeducedWorkerID is the reserved worker ID of answers synthesized by
// the namespace deduction tier rather than labeled by a crowd worker.
// Real workers use non-negative IDs by convention.
const DeducedWorkerID = -1

// SourceDeduced marks a wire label synthesized by answer deduction.
const SourceDeduced = "deduced"

// deducedQuality is the quality of a synthesized label: high enough
// that one label resolves any clamped prior past either inference
// threshold, so a deduced verdict is always accepted by the loop.
const deducedQuality = 0.999

// Label is one worker's answer in wire form; it is the JSON face of
// crowd.Label.
type Label struct {
	// WorkerID identifies the worker (opaque to the pipeline). The
	// reserved DeducedWorkerID marks deduction-synthesized answers.
	WorkerID int `json:"worker"`
	// Quality is the worker's answer quality λ ∈ (0,1], the weight truth
	// inference gives the label (Eq. 17).
	Quality float64 `json:"quality"`
	// IsMatch is the worker's verdict.
	IsMatch bool `json:"match"`
	// Source is "deduced" for labels synthesized by the namespace
	// deduction tier, empty for crowd labels. It is derived from
	// WorkerID, so it survives wire and snapshot round-trips without
	// widening the pipeline's label type.
	Source string `json:"source,omitempty"`
}

// ToCrowd converts wire labels to the pipeline's label type.
func ToCrowd(labels []Label) []crowd.Label {
	out := make([]crowd.Label, len(labels))
	for i, l := range labels {
		out[i] = crowd.Label{Worker: crowd.Worker{ID: l.WorkerID, Quality: l.Quality}, IsMatch: l.IsMatch}
	}
	return out
}

// FromCrowd converts pipeline labels to wire form, restoring the
// "deduced" source marker on synthesized labels.
func FromCrowd(labels []crowd.Label) []Label {
	out := make([]Label, len(labels))
	for i, l := range labels {
		out[i] = Label{WorkerID: l.Worker.ID, Quality: l.Worker.Quality, IsMatch: l.IsMatch}
		if l.Worker.ID == DeducedWorkerID {
			out[i].Source = SourceDeduced
		}
	}
	return out
}

// deducedLabels synthesizes the answer for a deduced verdict: one label
// from the reserved deduction worker, strong enough to resolve the pair
// the way the namespace's recorded answers imply.
func deducedLabels(v deduce.Verdict) []crowd.Label {
	return []crowd.Label{{
		Worker:  crowd.Worker{ID: DeducedWorkerID, Quality: deducedQuality},
		IsMatch: v == deduce.Match,
	}}
}

// Session is one resumable resolution job: a core.Loop behind a mutex,
// with cache-mediated answer sharing and an event log for snapshots. All
// methods are safe for concurrent use.
type Session struct {
	mu      sync.Mutex
	id      string
	loop    *core.Loop
	cache   *Cache     // nil when the session does not share answers
	persist *persister // nil when the session is not journaled to a Store
	k1, k2  string     // KB names of the session's pipeline orientation
	flip    bool       // pipeline orientation is the reverse of the cache's
}

// New starts a session over a prepared pipeline, which any number of
// sessions may share. cache may be nil; when set, the session first drains
// any answers the cache already holds for its opening batch.
func New(id string, p *core.Prepared, cache *Cache) *Session {
	s := &Session{id: id, loop: p.NewLoop(), cache: cache, k1: p.K1.Name(), k2: p.K2.Name()}
	if cache != nil {
		s.flip = cache.orient(s.k1, s.k2)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainCache()
	return s
}

// canon maps a pipeline pair to the cache's canonical KB orientation: a
// session whose pipeline was prepared with the namespace's KBs swapped
// flips each pair, so an answer recorded by one orientation is found by
// the other. canon is its own inverse, so it also maps cached pairs back
// into the session's pipeline orientation.
func (s *Session) canon(q pair.Pair) pair.Pair {
	if !s.flip {
		return q
	}
	return pair.Pair{U1: q.U2, U2: q.U1}
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// State returns the session's current state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.State()
}

// Done reports whether the result is final.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.Done()
}

// Progress returns the questions asked and loops executed so far.
func (s *Session) Progress() (questions, loops int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.loop.Result()
	return res.Questions, res.Loops
}

// Deduced returns how many selected questions were answered by
// deduction instead of the crowd so far (always 0
// unless the pipeline was prepared with Config.Deduce).
func (s *Session) Deduced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.Result().Deduced
}

// Shards returns the number of engine shards of the session's pipeline,
// one or more; isolated vertices are in none.
func (s *Session) Shards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.NumShards()
}

// NextBatch publishes the questions the crowd should answer now: the open
// batch minus answers already known to the shared cache (delivered
// immediately) and minus questions a sibling session already has in
// flight. An empty batch with State still StateAwaiting means every open
// question is reserved elsewhere — poll again once siblings deliver.
func (s *Session) NextBatch() []Question {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainCache()
	if s.loop.Done() {
		return nil
	}
	var out []Question
	for _, q := range s.loop.Batch() {
		if s.loop.Deduces(q) {
			// The loop's own recorded answers already imply q's verdict;
			// the drain will skip it once the apply cursor reaches it, so
			// posting it would buy a crowd answer that gets discarded.
			continue
		}
		if s.cache != nil && !s.cache.reserve(s.canon(q), s.id) {
			continue // answered or posted by a sibling; drained next round
		}
		out = append(out, Question{ID: QuestionID(q), Pair: q})
	}
	return out
}

// Deliver accepts the labels for one open question, identified by its wire
// ID, in any order. The answer is shared through the cache (when present)
// so sibling sessions never re-post the pair. A wire answer must carry at
// least one label; use DeliverPair to feed an empty (all workers timed
// out) answer in process.
func (s *Session) Deliver(id string, labels []Label) error {
	q, err := ParseQuestionID(id)
	if err != nil {
		return err
	}
	if len(labels) == 0 {
		return fmt.Errorf("%w: %v", ErrNoLabels, q)
	}
	return s.DeliverPair(q, ToCrowd(labels))
}

// DeliverPair is Deliver for in-process callers that already hold the
// pair and pipeline labels. An empty label slice is
// allowed and leaves the question's posterior at its prior — exactly how
// the synchronous loop treats an Asker that returns no labels.
func (s *Session) DeliverPair(q pair.Pair, labels []crowd.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loop.Deliver(q, labels); err != nil {
		if s.loop.WasDeduced(q) {
			// A late crowd answer for a question deduction already
			// skipped: the pair is resolved, so the answer is swallowed
			// rather than rejected. It is not journaled (it is not part
			// of the loop's replayable history), but it is shared through
			// the cache so siblings still benefit from the crowd's work.
			if s.cache != nil {
				s.cache.put(s.canon(q), labels)
				s.drainCache()
			}
			return nil
		}
		return err
	}
	s.journalLocked(q, labels)
	if s.cache != nil {
		s.cache.put(s.canon(q), labels)
	}
	s.drainCache()
	return nil
}

// journalLocked appends one accepted answer to the session's durable
// journal. Persistence is fail-stop, not fail-loud: a journal error
// freezes the durable state at the last consistent prefix (recorded as
// the sticky PersistErr) while the in-memory session keeps running, so
// a broken disk degrades durability rather than corrupting it or
// rejecting answers the loop already applied. Callers hold s.mu.
func (s *Session) journalLocked(q pair.Pair, labels []crowd.Label) {
	if s.persist != nil {
		s.persist.journal(s, q, labels)
	}
}

// PersistErr returns the sticky journal error, if persistence has
// failed; the session's durable state is frozen at the answer before
// the first failure.
func (s *Session) PersistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return nil
	}
	return s.persist.err
}

// attachPersist starts journaling the session to pers, whose sequence
// counter picks up after the answers already delivered (all covered by
// the store record pers appends to).
func (s *Session) attachPersist(pers *persister) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pers.seq = len(s.loop.History()) + len(s.loop.Buffered())
	s.persist = pers
}

// remove deletes the session's durable record and closes its loop under
// the session lock — the Store contract serializes per-ID calls through
// this lock, so no in-flight journal append can race the delete. On
// success the persister is detached, so no later delivery journals into
// the void (which would trip the persist-failure health signal), and the
// loop's shard engines are released: a session removed mid-run would
// otherwise pin them (on every cluster worker) for the life of the
// process.
func (s *Session) remove(store Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := store.Delete(s.id); err != nil {
		return err
	}
	s.persist = nil
	s.loop.Close()
	return nil
}

// Result returns a detached copy of the current result; final once Done.
func (s *Session) Result() *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.loop.Result()
	return &core.Result{
		Matches:           res.Matches.Clone(),
		Confirmed:         res.Confirmed.Clone(),
		Propagated:        res.Propagated.Clone(),
		IsolatedPredicted: res.IsolatedPredicted.Clone(),
		NonMatches:        res.NonMatches.Clone(),
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
	}
}

// joinCache attaches a replayed session to its namespace cache: its own
// answers are shared out, and answers siblings contributed meanwhile are
// drained in (and journaled, when a persister is attached). Replay runs
// with the cache detached — otherwise a sibling's answers would advance
// the loop past its own recorded history and the rest of the replay
// would no longer apply.
func (s *Session) joinCache(c *Cache) {
	s.flip = c.orient(s.k1, s.k2)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
	for _, a := range s.loop.History() {
		c.put(s.canon(a.Pair), a.Labels)
	}
	for _, a := range s.loop.Buffered() {
		c.put(s.canon(a.Pair), a.Labels)
	}
	s.drainCache()
}

// drainCache delivers every cached answer for the open batch, repeating as
// deliveries advance the loop into new batches, and releases this
// session's reservations once the loop finishes. For a Deduce-enabled
// session, the namespace deduction tier sits behind the answer cache:
// a question no sibling has answered directly, but whose verdict the
// namespace's recorded answers imply, is answered with a
// synthesized label through the same delivery path — journaled, shared
// and replayed exactly like a crowd answer. Questions the loop's own
// facts already imply are left alone (the drain skips them without any
// answer, exactly as the synchronous driver would). Callers hold s.mu.
func (s *Session) drainCache() {
	if s.cache == nil {
		return
	}
outer:
	for !s.loop.Done() {
		for _, q := range s.loop.Batch() {
			if s.loop.Deduces(q) {
				continue // the loop will skip q by itself
			}
			labels, ok := s.cache.answer(s.canon(q))
			if !ok && s.loop.DeduceEnabled() {
				if v := s.cache.deduce(s.canon(q)); v != deduce.Unknown {
					labels, ok = deducedLabels(v), true
					// Share the synthesized answer like a crowd answer, so
					// siblings drain it instead of re-deducing or re-posting.
					s.cache.put(s.canon(q), labels)
				}
			}
			if ok {
				if err := s.loop.Deliver(q, labels); err != nil {
					panic(err) // q came from Batch; delivery cannot fail
				}
				s.journalLocked(q, labels)
				continue outer // the batch may have changed entirely
			}
		}
		return
	}
	s.cache.releaseOwned(s.id)
}
