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
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// ErrBadLabel rejects a wire label that poses as the deduction tier
// (worker DeducedWorkerID) or whose quality lies outside (0, 1].
var ErrBadLabel = errors.New("session: bad label")

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

// ParseQuestionID inverts QuestionID. It accepts only the canonical form
// QuestionID prints for non-negative entity IDs — no sign, no leading
// zero, each side within int32 — so no two IDs name one question.
func ParseQuestionID(id string) (pair.Pair, error) {
	u1s, u2s, _ := strings.Cut(id, "-")
	u1, err1 := strconv.ParseInt(u1s, 10, 32)
	u2, err2 := strconv.ParseInt(u2s, 10, 32)
	q := pair.Pair{U1: kb.EntityID(u1), U2: kb.EntityID(u2)}
	if err1 != nil || err2 != nil || u1 < 0 || u2 < 0 || QuestionID(q) != id {
		return pair.Pair{}, fmt.Errorf("session: malformed question id %q (want \"u1-u2\")", id)
	}
	return q, nil
}

// DeducedWorkerID is the reserved worker ID of answers synthesized by
// the namespace deduction tier rather than labeled by a crowd worker.
// Real workers use non-negative IDs by convention.
const DeducedWorkerID = -1

// deducedQuality is the quality of a synthesized label: high enough
// that one label resolves any clamped prior past either inference
// threshold, so a deduced verdict is always accepted by the loop.
const deducedQuality = 0.999

// Label is one worker's answer: crowd.Label, the one type a label has
// from the wire request through the loop to the journal.
type Label = crowd.Label

// ToCrowd returns labels as they are: Label is crowd.Label.
func ToCrowd(labels []Label) []crowd.Label { return labels }

// deducedLabels synthesizes the answer for a deduced verdict: one label
// from the reserved deduction worker, strong enough to resolve the pair
// the way the namespace's recorded answers imply.
func deducedLabels(v deduce.Verdict) []Label {
	return []Label{{WorkerID: DeducedWorkerID, Quality: deducedQuality, IsMatch: v == deduce.Match}}
}

// Session is one resumable resolution job: a core.Loop behind a mutex,
// with cache-mediated answer sharing and an event log for snapshots. All
// methods are safe for concurrent use.
type Session struct {
	mu    sync.Mutex
	id    string
	p     *core.Prepared
	meta  []byte // the pipeline spec the Manager admitted the session with
	loop  *core.Loop
	cache *Cache // nil when the session does not share answers
	flip  bool   // pipeline orientation is the reverse of the cache's

	// The journal into a Store (nil when the session is not journaled).
	store      Store
	seq        int           // next delivery sequence number to append
	persistErr error         // sticky first failure; appends stop once set
	fails      *atomic.Int64 // the owning Manager's persist-failure count
}

// New starts a session over a prepared pipeline, which any number of
// sessions may share. cache may be nil; when set, the session first drains
// any answers the cache already holds for its opening batch.
func New(id string, p *core.Prepared, cache *Cache) *Session {
	s := &Session{id: id, p: p, loop: p.NewLoop()}
	if cache != nil {
		s.joinCache(cache)
	}
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

// Prepared returns the pipeline the session runs over, which it shares
// with every session created over it.
func (s *Session) Prepared() *core.Prepared { return s.p }

// Meta returns the opaque pipeline spec the Manager admitted the session
// with (Create's, Restore's or the store record's meta); nil for a
// session no Manager admitted. The caller must not mutate it.
func (s *Session) Meta() []byte { return s.meta }

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
// batch after the drain, minus the questions the namespace tier can answer
// (applied once the loop's cursor reaches them) and the questions a
// sibling session already has in flight. An empty batch with State still
// StateAwaiting means every open question is reserved elsewhere — poll
// again once siblings deliver.
func (s *Session) NextBatch() []Question {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainCache()
	if s.loop.Done() {
		return nil
	}
	var out []Question
	for _, q := range s.loop.Batch() {
		if s.cache != nil && !s.cache.reserve(s.canon(q), s.id, s.p.Cfg.Deduce) {
			continue // the tier answers it at the cursor, or a sibling posted it
		}
		out = append(out, Question{ID: QuestionID(q), Pair: q})
	}
	return out
}

// Deliver accepts the labels for one open question, identified by its wire
// ID, in any order. The answer is shared through the cache (when present)
// so sibling sessions never re-post the pair. A wire answer must carry at
// least one label, each from a crowd worker (not DeducedWorkerID) with a
// quality in (0, 1]; a rejected answer leaves the question open. Use
// DeliverPair to feed an empty (all workers timed out) answer in process.
func (s *Session) Deliver(id string, labels []Label) error {
	q, err := ParseQuestionID(id)
	if err != nil {
		return err
	}
	if len(labels) == 0 {
		return fmt.Errorf("%w: %v", ErrNoLabels, q)
	}
	for _, l := range labels {
		if l.WorkerID == DeducedWorkerID || !(l.Quality > 0 && l.Quality <= 1) {
			return fmt.Errorf("%w for %v: worker %d, quality %v", ErrBadLabel, q, l.WorkerID, l.Quality)
		}
	}
	return s.DeliverPair(q, slices.Clone(labels))
}

// DeliverPair is Deliver for in-process callers that already hold the
// pair. The session keeps labels as given, so the caller must not mutate
// them afterwards (Deliver hands it a copy). An empty label slice is
// allowed and leaves the question's posterior at its prior — exactly how
// the synchronous loop treats an Asker that returns no labels.
func (s *Session) DeliverPair(q pair.Pair, labels []Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyLocked(q, labels); err != nil {
		return err
	}
	s.drainCache()
	return nil
}

// applyLocked is the one path an answer takes into the session, whether
// a caller delivered it or the drain found it cached or deduced for the
// question at the loop's cursor: the loop applies it (a caller's answer
// ahead of the cursor is buffered), the journal records it, the cache
// shares it. A late crowd answer for a question deduction already skipped
// is swallowed rather than rejected: the pair is resolved, so it is not
// journaled (it is not part of the loop's replayable history), but it is
// still shared so siblings benefit from the crowd's work. An answer the
// loop refuses is neither journaled nor shared. Callers hold s.mu.
func (s *Session) applyLocked(q pair.Pair, labels []Label) error {
	if err := s.loop.Deliver(q, labels); err == nil {
		s.journalLocked(q, labels)
	} else if !s.loop.WasDeduced(q) {
		return err
	}
	if s.cache != nil {
		s.cache.put(s.canon(q), labels)
	}
	return nil
}

// journalLocked appends one accepted answer to the session's durable
// journal, closing the log when the answer finished the session.
// Persistence is fail-stop, not fail-loud: a journal error freezes the
// durable state at the last consistent prefix (recorded as the sticky
// PersistErr; later answers are not journaled, since a log with a gap
// would not replay) while the in-memory session keeps running, so a
// broken disk degrades durability rather than corrupting it or rejecting
// answers the loop already applied. Callers hold s.mu.
func (s *Session) journalLocked(q pair.Pair, labels []Label) {
	if s.store == nil || s.persistErr != nil {
		return
	}
	rec := AnswerRec{U1: q.U1, U2: q.U2, Labels: labels}
	if err := s.store.AppendAnswer(s.id, s.seq, rec, s.loop.Done()); err != nil {
		s.persistErr = fmt.Errorf("session %s: journaling answer %d: %w", s.id, s.seq, err)
		s.fails.Add(1)
		return
	}
	s.seq++
}

// PersistErr returns the sticky journal error, if persistence has
// failed; the session's durable state is frozen at the answer before
// the first failure.
func (s *Session) PersistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErr
}

// journalTo starts journaling the session into store, whose record for
// the session holds next answers; fails counts the appends that fail.
// next is the record's count, not the loop's: the record also holds the
// client answers the loop dropped unapplied (buffered for a question
// deduction resolved meanwhile), and the next append continues its seq.
func (s *Session) journalTo(store Store, fails *atomic.Int64, next int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store, s.fails, s.seq = store, fails, next
}

// remove deletes the session's durable record and closes its loop under
// the session lock — the Store contract serializes per-ID calls through
// this lock, so no in-flight journal append can race the delete. On
// success the journal is detached, so no later delivery journals into
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
	s.store = nil
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

// joinCache attaches a session to its namespace cache: its own answers
// are shared out, and answers siblings contributed meanwhile are drained
// in (and journaled, when a journal is attached). Replay runs
// with the cache detached — otherwise a sibling's answers would advance
// the loop past its own recorded history and the rest of the replay
// would no longer apply.
func (s *Session) joinCache(c *Cache) {
	s.flip = c.orient(s.p.K1.Name(), s.p.K2.Name())
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

// drainCache answers the question at the loop's cursor from the
// namespace tier — a sibling's cached answer or, for a Deduce-enabled
// session, the verdict the namespace's recorded answers imply, as a
// synthesized label — through applyLocked, and repeats on the new
// cursor: Batch()[0] is the cursor after any drain. The first question
// the tier cannot answer ends the drain, and a finished loop releases
// this session's reservations. A tier answer is applied as it arrives,
// so the journal holds none the loop drops; the crowd never sees a
// question the tier can answer (reserve refuses it), and its answer is
// the same when the cursor reaches it. Questions the loop's own facts
// imply are not in its Batch: the loop skips them without any answer,
// exactly as the synchronous driver does. A tier answer the loop refuses
// — only a failed shard runner refuses its cursor — ends the drain with
// the session failed. Callers hold s.mu.
func (s *Session) drainCache() {
	if s.cache == nil {
		return
	}
	for !s.loop.Done() {
		batch := s.loop.Batch()
		if len(batch) == 0 {
			return // the loop failed; State reports it
		}
		labels, ok := s.cache.answer(s.canon(batch[0]), s.p.Cfg.Deduce)
		if !ok || s.applyLocked(batch[0], labels) != nil {
			return
		}
	}
	s.cache.releaseOwned(s.id)
}
