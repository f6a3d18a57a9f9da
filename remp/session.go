package remp

import (
	"repro/internal/core"
	"repro/internal/session"
)

// SessionState names a session's lifecycle state.
type SessionState = session.State

// Session lifecycle states: a session awaits answers until the stop
// criterion holds, then it is done and the result is final.
const (
	// SessionAwaiting means a question batch is published and at least one
	// answer is outstanding.
	SessionAwaiting = session.StateAwaiting
	// SessionDone means the result is final.
	SessionDone = session.StateDone
)

// Question is one published crowd question: a stable wire ID ("u1-u2")
// plus the entity pair it asks about.
type Question = session.Question

// Label is one worker's answer in wire form: worker ID, answer quality
// λ ∈ (0,1] and the verdict.
type Label = session.Label

// Session is an asynchronous resolution job: the paper's human–machine
// loop inverted into a pull/push state machine. NextBatch publishes the
// current µ-question batch; Deliver accepts the crowd's answers in any
// order; once a batch drains the loop advances (propagation sync,
// confirm/detach, re-estimation, padding, stop criterion) exactly as the
// synchronous Resolve would. Sessions are safe for concurrent use and
// survive process restarts through Snapshot / RestoreSession.
type Session struct {
	s *session.Session
}

// NewSession prepares the pipeline and starts a standalone session over
// it. Use Manager.NewSession instead when several sessions should share
// crowd answers.
func NewSession(ds Dataset, opts Options) (*Session, error) {
	p, err := PreparePipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	return &Session{s: session.New("session", p, nil)}, nil
}

// ID returns the session identifier ("session" for standalone sessions;
// manager-created ones get unique IDs).
func (s *Session) ID() string { return s.s.ID() }

// State returns the session's lifecycle state.
func (s *Session) State() SessionState { return s.s.State() }

// Done reports whether the result is final.
func (s *Session) Done() bool { return s.s.Done() }

// Progress returns the questions answered and loops executed so far.
func (s *Session) Progress() (questions, loops int) { return s.s.Progress() }

// Shards returns how many graph shards — of pairs with a relational edge —
// the session resolves concurrently (at least one).
func (s *Session) Shards() int { return s.s.Shards() }

// Deduced returns how many selected questions deduction answered instead
// of the crowd so far (always 0 unless Options.Deduce).
func (s *Session) Deduced() int { return s.s.Deduced() }

// NextBatch returns the published questions still awaiting answers. An
// empty batch means the session is done — except under a Manager, where
// it can also mean every open question is already in flight in a sibling
// session; poll again after siblings deliver.
func (s *Session) NextBatch() []Question { return s.s.NextBatch() }

// Deliver accepts the worker labels for one published question, in any
// order. Answers are applied in the batch's selection order internally,
// so delivery order cannot change the result.
func (s *Session) Deliver(questionID string, labels []Label) error {
	return s.s.Deliver(questionID, labels)
}

// Result returns a detached copy of the session's result; final once Done.
func (s *Session) Result() *Result {
	return fromCoreResult(s.s.Result())
}

// PersistErr returns the sticky journal error of a store-backed
// session: non-nil means persistence failed and the durable state is
// frozen at the last consistent prefix while the in-memory session
// keeps running.
func (s *Session) PersistErr() error { return s.s.PersistErr() }

// Snapshot serializes the session's state to JSON: an event log of the
// answers applied so far (plus any buffered out of order), replayable
// against a freshly prepared pipeline. Persist it with the dataset and
// Options used at creation; RestoreSession needs all three.
func (s *Session) Snapshot() ([]byte, error) {
	return session.EncodeSnapshot(s.s.Snapshot())
}

// RestoreSession rebuilds a session from a Snapshot by re-preparing the
// pipeline from the same dataset and options and replaying the answer
// log. A snapshot replayed against a different dataset or configuration
// fails with a divergence error.
func RestoreSession(ds Dataset, opts Options, snapshot []byte) (*Session, error) {
	snap, err := session.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	p, err := PreparePipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	inner, err := session.Restore(p, nil, snap)
	if err != nil {
		return nil, err
	}
	return &Session{s: inner}, nil
}

// Store is durable session storage: per session, a create record plus
// an append-only answer log, journaled by a Manager so its sessions
// survive a process restart. Two backends ship with the package:
// NewMemStore (the in-memory map, no durability) and NewDiskStore (one
// file per session, every answer fsync'd before it is acknowledged).
type Store = session.Store

// NewMemStore returns an in-memory session store.
func NewMemStore() Store { return session.NewMemStore() }

// NewDiskStore opens (creating if needed) a crash-safe session store
// rooted at dir. See internal/session.DiskStore for the on-disk layout.
func NewDiskStore(dir string) (Store, error) { return session.NewDiskStore(dir) }

// ReopenFunc maps a stored session's meta blob — the opaque bytes the
// owner attached at creation — back to the dataset, options and cache
// namespace needed to re-prepare its pipeline during recovery.
type ReopenFunc func(id string, meta []byte) (Dataset, Options, string, error)

// Manager runs many concurrent sessions and shares crowd answers between
// the sessions of one namespace (use one namespace per dataset): a pair
// answered — or merely published — by one session is never re-posted by
// another, so the crowd is asked each question at most once. Every
// session is journaled into the manager's Store (in-memory by default;
// see OpenManager for durable sessions).
type Manager struct {
	m *session.Manager
}

// NewManager returns an empty session manager over an in-memory store.
func NewManager() *Manager { return &Manager{m: session.NewManager()} }

// OpenManager opens a session manager over a Store and recovers every
// session a previous process left in it: each stored session's pipeline
// is re-prepared via reopen, its answer log is replayed exactly as
// RestoreSession replays a snapshot, and the session resumes under its
// original ID. The recovered IDs are returned in sorted
// order. Sessions that fail to recover are skipped and reported in the
// returned error; the manager is usable regardless. A nil reopen skips
// recovery (any stored sessions stay dormant in the store).
func OpenManager(store Store, reopen ReopenFunc) (*Manager, []string, error) {
	m := &Manager{m: session.NewManagerStore(store)}
	if reopen == nil {
		return m, nil, nil
	}
	ids, err := m.m.Recover(func(id string, meta []byte) (*core.Prepared, string, error) {
		ds, opts, namespace, err := reopen(id, meta)
		if err != nil {
			return nil, "", err
		}
		p, err := PreparePipelineWith(ds, opts, m.m.Scheduler(), nil)
		return p, namespace, err
	})
	return m, ids, err
}

// NewSession prepares a pipeline and starts a managed session over it in
// the namespace. The pipeline's shard work draws on the manager's shared
// scheduler, so concurrent sessions cannot oversubscribe the machine. meta is stored with the session and handed back to the
// reopen function on recovery; pass nil when the manager's store does
// not outlive the process.
func (m *Manager) NewSession(ds Dataset, opts Options, namespace string, meta []byte) (*Session, error) {
	p, err := PreparePipelineWith(ds, opts, m.m.Scheduler(), nil)
	if err != nil {
		return nil, err
	}
	inner, err := m.m.Create(p, namespace, meta)
	if err != nil {
		return nil, err
	}
	return &Session{s: inner}, nil
}

// Get returns the managed session with the given ID.
func (m *Manager) Get(id string) (*Session, bool) {
	inner, ok := m.m.Get(id)
	if !ok {
		return nil, false
	}
	return &Session{s: inner}, true
}

// Remove forgets a session, deletes its durable record and releases the
// questions it still had in flight, so sibling sessions can post them
// instead. It reports whether anything was removed: an ID that is not
// live but still holds a store record (a session whose recovery failed)
// is purged from the store.
func (m *Manager) Remove(id string) (bool, error) { return m.m.Remove(id) }

// SessionIDs returns the live session IDs in deterministic order.
func (m *Manager) SessionIDs() []string { return m.m.IDs() }

// Close closes the store; acknowledged answers are already durable.
func (m *Manager) Close() error { return m.m.Close() }

// fromCoreResult converts the pipeline result to the public shape.
func fromCoreResult(res *core.Result) *Result {
	return &Result{
		Matches:           res.Matches,
		Confirmed:         res.Confirmed,
		Propagated:        res.Propagated,
		IsolatedPredicted: res.IsolatedPredicted,
		NonMatches:        res.NonMatches,
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
	}
}
