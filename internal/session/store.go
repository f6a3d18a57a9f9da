package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Store is the durable face of a session: an immutable create record
// plus one append-only log of the answers delivered since. The Manager
// writes the create record once, when it registers the session, and
// journals every accepted delivery through AppendAnswer before it is
// acknowledged; the loop may still drop a client's out-of-order answer.
// Recovery reads the record back with Get and admits it exactly as
// Manager.Restore admits an API snapshot: replayed through Restore, so a
// record whose shard runner cannot start stays dormant.
//
// The store treats meta and snapshot as opaque: meta is whatever the
// owner needs to re-prepare the session's pipeline (the server persists
// its CreateRequest JSON there), snapshot is the session package's own
// JSON form (Session.Snapshot) at registration — the header Restore
// checks plus any answers the session had already applied. Log records
// carry the answer's position in the session's delivery order so a lost
// record shows up as a gap instead of a silent divergence.
//
// Implementations must be safe for concurrent use across sessions;
// calls for one session ID are serialized by the owning session's lock.
type Store interface {
	// Create registers a new session with its pipeline meta and its
	// snapshot at registration. It fails with ErrStoreExists when the ID
	// is taken.
	Create(id string, meta, snapshot []byte) error
	// AppendAnswer durably appends one delivered answer. seq is the
	// 0-based position of the answer in the session's delivery order;
	// done marks the answer that finished the session and closes the log.
	AppendAnswer(id string, seq int, rec AnswerRec, done bool) error
	// Get returns the stored record of a session (ErrStoreNotFound when
	// the ID is unknown).
	Get(id string) (*Record, error)
	// List returns the stored session IDs in deterministic order.
	List() ([]string, error)
	// Delete forgets a session. Deleting an unknown ID is a no-op.
	Delete(id string) error
	// Close releases the store's resources. Using the store afterwards
	// is an error.
	Close() error
}

// Record is the stored state of one session.
type Record struct {
	// Meta is the opaque pipeline spec persisted at Create.
	Meta []byte
	// Snapshot is the session snapshot persisted at Create.
	Snapshot []byte
	// Log holds the answers appended since, in append order.
	Log []LogRec
	// Done reports that the log was closed by the session's final answer.
	Done bool
}

// LogRec is one appended answer with its delivery sequence number.
type LogRec struct {
	Seq    int       `json:"seq"`
	Answer AnswerRec `json:"answer"`
}

// Replay folds the record into the one Snapshot that Restore replays:
// the create-time snapshot with the answer log appended in delivery
// order. A log record out of sequence is corruption.
func (r *Record) Replay() (*Snapshot, error) {
	snap, err := DecodeSnapshot(r.Snapshot)
	if err != nil {
		return nil, err
	}
	snap.Applied = append(snap.Applied, snap.Pending...)
	snap.Pending = nil
	for _, l := range r.Log {
		if l.Seq != len(snap.Applied) {
			return nil, fmt.Errorf("session: answer log gap: expected seq %d, found %d", len(snap.Applied), l.Seq)
		}
		snap.Applied = append(snap.Applied, l.Answer)
	}
	snap.Done = snap.Done || r.Done
	return snap, nil
}

// Store errors.
var (
	// ErrStoreExists is returned by Create for an ID already stored.
	ErrStoreExists = errors.New("session: store already holds id")
	// ErrStoreNotFound is returned for operations on unknown IDs.
	ErrStoreNotFound = errors.New("session: store has no record of id")
	// ErrStoreClosed is returned for operations on a closed store.
	ErrStoreClosed = errors.New("session: store is closed")
)

// MemStore is the in-memory Store: the durable interface over a plain
// map. It gives no crash safety — it exists so the persistence path has
// a single shape regardless of backend, and so tests can exercise the
// journal/recover cycle without touching disk.
type MemStore struct {
	mu     sync.Mutex
	recs   map[string]*Record
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string]*Record)}
}

// Create implements Store.
func (m *MemStore) Create(id string, meta, snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if _, ok := m.recs[id]; ok {
		return fmt.Errorf("%w: %q", ErrStoreExists, id)
	}
	m.recs[id] = &Record{
		Meta:     append([]byte(nil), meta...),
		Snapshot: append([]byte(nil), snapshot...),
	}
	return nil
}

// AppendAnswer implements Store.
func (m *MemStore) AppendAnswer(id string, seq int, rec AnswerRec, done bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	r, ok := m.recs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrStoreNotFound, id)
	}
	labels := append([]Label(nil), rec.Labels...)
	r.Log = append(r.Log, LogRec{Seq: seq, Answer: AnswerRec{U1: rec.U1, U2: rec.U2, Labels: labels}})
	r.Done = done
	return nil
}

// Get implements Store.
func (m *MemStore) Get(id string) (*Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	r, ok := m.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
	}
	out := &Record{
		Meta:     append([]byte(nil), r.Meta...),
		Snapshot: append([]byte(nil), r.Snapshot...),
		Log:      append([]LogRec(nil), r.Log...),
		Done:     r.Done,
	}
	return out, nil
}

// List implements Store.
func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	out := make([]string, 0, len(m.recs))
	for id := range m.recs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (m *MemStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	delete(m.recs, id)
	return nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
