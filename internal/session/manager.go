package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/deduce"
)

// ErrSessionExists is returned by Manager.Restore and Manager.Recover
// when the session's ID is already live or claimed.
var ErrSessionExists = errors.New("session: id already exists")

// ErrPersist marks errors from the durable layer (the session Store):
// the session state is fine, the storage is not. Servers should map it
// to a 5xx, not a client error.
var ErrPersist = errors.New("session: persistence failure")

// ErrRunner marks a session whose loop was dead at birth: its shard runner
// could not start (a cluster that would take no shard). Restore returns
// it before replaying anything, so Create, Restore and Recover all refuse
// such a session alike. No session exists.
var ErrRunner = errors.New("session: shard runner failed")

// Manager owns a set of concurrent sessions and the per-namespace answer
// caches they share. Sessions created in the same namespace — the same
// dataset, by convention — exchange answers through one Cache; distinct
// namespaces are fully isolated (entity IDs are only meaningful within one
// dataset). Every session's pipeline fans its shard tasks, and each
// engine's Dijkstra runs, out on the process's one pool (par.Pool), so
// any number of managers and sessions share GOMAXPROCS helpers beside
// their callers.
//
// Every managed session is journaled into the Manager's Store: the
// session's pipeline meta and its snapshot at registration, then one log
// append per applied answer. Recover rebuilds the sessions a previous
// process left in the store. Create, Restore and Recover admit a session
// one way: a replay of its snapshot (empty for Create) through Restore,
// then the cache and store joins, then registration. The default store is the in-memory MemStore
// (the same code path, no durability); give NewManagerStore a DiskStore
// for crash-safe sessions. All methods are safe for concurrent use.
type Manager struct {
	mu           sync.Mutex
	sessions     map[string]*Session
	caches       map[string]*Cache
	nextID       atomic.Int64
	store        Store
	persistFails atomic.Int64
	walReplayed  atomic.Int64
}

// NewManager returns an empty manager journaling into an in-memory
// store.
func NewManager() *Manager { return NewManagerStore(NewMemStore()) }

// NewManagerStore returns an empty manager journaling every session
// into store. The manager takes ownership of the store; Close closes it.
func NewManagerStore(store Store) *Manager {
	return &Manager{
		sessions: make(map[string]*Session),
		caches:   make(map[string]*Cache),
		store:    store,
	}
}

// PersistFailures returns how many sessions have had a journal append
// fail; non-zero means at least one session's durable state is stale
// (see Session.PersistErr).
func (m *Manager) PersistFailures() int64 { return m.persistFails.Load() }

// WALReplayed returns how many answers Recover has re-delivered from
// session logs since the manager was built — the replay work a restart
// paid for.
func (m *Manager) WALReplayed() int64 { return m.walReplayed.Load() }

// CacheStats sums hits, misses and granted reservations across every
// namespace answer cache the manager owns.
func (m *Manager) CacheStats() (hits, misses, reservations int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.caches {
		hits += c.Hits()
		misses += c.Misses()
		reservations += c.Reservations()
	}
	return hits, misses, reservations
}

// DeduceStats returns each namespace's deduction-store counters: answers
// served by deduction (hits), match facts recorded (unions) and
// contradictory facts rejected (conflicts). Namespaces whose sessions
// never enabled deduction still appear — their stores record answers as
// facts regardless, so the counters show recorded matches with zero hits.
func (m *Manager) DeduceStats() map[string]deduce.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]deduce.Stats, len(m.caches))
	for ns, c := range m.caches {
		out[ns] = c.DeduceStats()
	}
	return out
}

// Cache returns the namespace's shared answer cache, creating it on first
// use.
func (m *Manager) Cache(namespace string) *Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.caches[namespace]
	if !ok {
		c = NewCache()
		m.caches[namespace] = c
	}
	return c
}

// Create starts a new session in the namespace and registers it under a
// fresh ID. Sessions may share p: it is only read. meta is the opaque
// pipeline spec stored alongside the session — whatever the
// caller needs to re-prepare the same pipeline when recovering the
// session from the store (may be nil when recovery is not needed).
func (m *Manager) Create(p *core.Prepared, namespace string, meta []byte) (*Session, error) {
	snap := &Snapshot{Version: SnapshotVersion, ID: m.claimID()}
	return m.admit(p, namespace, meta, snap, func(s *Session) error {
		for {
			err := m.writeRecord(s, false)
			if !errors.Is(err, ErrStoreExists) {
				return err
			}
			// A dormant store record (unrecovered or skipped at startup)
			// squats on this counter value; rebind the session to the next
			// free ID and try again. Rebinding is safe here: the session
			// is not yet registered, journaled, or holding reservations.
			m.free(s.id)
			s.id = m.claimID()
		}
	})
}

// claimID allocates the next free session ID and claims its slot.
func (m *Manager) claimID() string {
	for {
		if id := fmt.Sprintf("s%d", m.nextID.Add(1)); m.claim(id) == nil {
			return id
		}
	}
}

// claim claims id's slot (nil placeholder) under the manager lock, so a
// concurrent Create, Restore or Recover cannot race onto the same ID. It
// fails with ErrSessionExists when the ID is live or already claimed.
func (m *Manager) claim(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, taken := m.sessions[id]; taken {
		return fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	m.sessions[id] = nil
	return nil
}

// free gives up a claimed slot.
func (m *Manager) free(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, id)
}

// admit brings a session to life under the slot its caller claimed
// (snap.ID), with meta as its pipeline spec — the one path Create,
// Restore and Recover share. It replays snap over p cache-free (a
// sibling's answers must not advance the loop past its own recorded
// history), so a runner that cannot start fails all three alike with
// ErrRunner. The session then joins the namespace
// cache and the store in the order its record needs. A nil record means
// the store already holds it (Recover): the journal attaches first, so
// answers siblings resolved meanwhile drain in at the join and are
// appended to the log. Otherwise record writes the new create record
// after the join, and the drained answers ride in its snapshot. On any
// failure the slot and the session's reservations are freed and its loop
// closed.
func (m *Manager) admit(p *core.Prepared, namespace string, meta []byte, snap *Snapshot, record func(*Session) error) (*Session, error) {
	s, err := Restore(p, nil, snap)
	if err != nil {
		m.free(snap.ID)
		return nil, err
	}
	s.meta = meta
	cache := m.Cache(namespace)
	if record == nil {
		s.journalTo(m.store, &m.persistFails, len(snap.Applied)+len(snap.Pending))
		s.joinCache(cache)
	} else {
		s.joinCache(cache)
		err = record(s)
	}
	if err != nil {
		cache.releaseOwned(s.id)
		s.loop.Close()
		m.free(s.id)
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessions[s.id] = s
	return s, nil
}

// writeRecord stores the session's create record — its meta plus a
// snapshot of its current state, which covers any answers the cache join
// drained — and starts journaling onto it. replace clears a stale store
// record under the same ID first.
func (m *Manager) writeRecord(s *Session, replace bool) error {
	snap := s.snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("session: encoding initial snapshot: %w", err)
	}
	err = m.store.Create(s.ID(), s.meta, data)
	if replace && errors.Is(err, ErrStoreExists) {
		// The caller is explicitly restoring this ID from a snapshot it
		// holds; an unrecovered store record under the same ID is stale.
		if err = m.store.Delete(s.ID()); err == nil {
			err = m.store.Create(s.ID(), s.meta, data)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: storing %q: %w", ErrPersist, s.ID(), err)
	}
	s.journalTo(m.store, &m.persistFails, len(snap.Applied)+len(snap.Pending))
	return nil
}

// Restore rebuilds a snapshotted session in the namespace and registers it
// under its snapshot ID, persisting it like a created session. p may be
// the pipeline live sessions already run over. It fails with
// ErrSessionExists when the ID is already live.
func (m *Manager) Restore(p *core.Prepared, namespace string, meta []byte, snap *Snapshot) (*Session, error) {
	// Claim the ID up front, exactly like Create: a concurrent Restore of
	// the same snapshot must lose here, before writeRecord's replace path
	// could delete the winner's live record.
	if err := m.claim(snap.ID); err != nil {
		return nil, err
	}
	return m.admit(p, namespace, meta, snap, func(s *Session) error { return m.writeRecord(s, true) })
}

// Recover rebuilds every session the store holds — the process-restart
// path. prepare maps a stored session's meta blob back to a freshly
// prepared pipeline and its cache namespace. Each stored record is
// admitted exactly like a snapshot handed to Restore, except that its
// store record already exists. Sessions that fail to recover — a corrupt
// or diverging log, a pipeline that will not prepare, a shard runner
// that cannot start — are skipped, their records left dormant in the
// store, and reported in the joined error; the rest recover normally.
// Returns the recovered IDs in sorted order.
func (m *Manager) Recover(prepare func(id string, meta []byte) (*core.Prepared, string, error)) ([]string, error) {
	ids, err := m.store.List()
	if err != nil {
		return nil, fmt.Errorf("session: listing store: %w", err)
	}
	var recovered []string
	var errs []error
	for _, id := range ids {
		if err := m.recoverOne(id, prepare); err != nil {
			errs = append(errs, fmt.Errorf("session %q: %w", id, err))
			continue
		}
		recovered = append(recovered, id)
	}
	sort.Strings(recovered)
	return recovered, errors.Join(errs...)
}

// recoverOne claims a stored session's ID, reads its record, prepares
// its pipeline and admits it.
func (m *Manager) recoverOne(id string, prepare func(id string, meta []byte) (*core.Prepared, string, error)) error {
	if err := m.claim(id); err != nil {
		return err
	}
	p, namespace, meta, snap, err := m.reopen(id, prepare)
	if err != nil {
		m.free(id)
		return err
	}
	if _, err := m.admit(p, namespace, meta, snap, nil); err != nil {
		return err
	}
	m.walReplayed.Add(int64(len(snap.Applied)))
	return nil
}

// reopen reads a stored session back as its meta and one replayable
// snapshot, and prepares its pipeline.
func (m *Manager) reopen(id string, prepare func(id string, meta []byte) (*core.Prepared, string, error)) (*core.Prepared, string, []byte, *Snapshot, error) {
	rec, err := m.store.Get(id)
	if err != nil {
		return nil, "", nil, nil, err
	}
	snap, err := rec.Replay()
	if err != nil {
		return nil, "", nil, nil, err
	}
	if snap.ID != id {
		return nil, "", nil, nil, fmt.Errorf("stored snapshot carries id %q", snap.ID)
	}
	p, namespace, err := prepare(id, rec.Meta)
	return p, namespace, rec.Meta, snap, err
}

// Get returns the session registered under id. A slot claimed by an
// in-flight Create, Restore or Recover (nil placeholder) is not yet
// visible.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if s == nil {
		return nil, false
	}
	return s, ok
}

// Remove forgets the session, deletes its durable record, closes its
// loop (releasing the shard engines of a session removed mid-run) and
// releases any question reservations it still holds, so sibling sessions
// can re-post its in-flight pairs. It reports whether anything was removed
// and returns the removed session, nil when there was none (an ID not
// live, or a dormant store record purged): the one caller that learns a
// session is gone, so the owner can release what it held for it once.
// It first claims the ID's slot, as an admission does, so of concurrent
// Removes of one ID one alone goes on and reports removal: the others
// find the slot claimed and report nothing removed. The store delete comes
// first: if it fails the session is registered again and the Remove can
// be retried — unregistering for good first would strand an
// API-unreachable durable record that resurrects the session on the next
// restart. An ID that is not live but still has a store record (a session
// whose recovery failed, or one left dormant by a recovery-less
// OpenManager) is purged from the store, so broken records remain
// deletable through the API.
func (m *Manager) Remove(id string) (*Session, bool, error) {
	m.mu.Lock()
	s, tracked := m.sessions[id]
	if tracked && s == nil {
		// An admission or another Remove holds the slot.
		m.mu.Unlock()
		return nil, false, nil
	}
	m.sessions[id] = nil
	m.mu.Unlock()
	if s == nil {
		// Not live: purge a dormant store record, if any.
		defer m.free(id)
		if _, err := m.store.Get(id); err != nil {
			if errors.Is(err, ErrStoreNotFound) {
				return nil, false, nil
			}
			// The record exists but is unreadable (e.g. a corrupt log) —
			// exactly the thing an operator wants to delete; fall through.
		}
		if err := m.store.Delete(id); err != nil {
			return nil, false, fmt.Errorf("%w: deleting %q from store: %w", ErrPersist, id, err)
		}
		return nil, true, nil
	}
	if err := s.remove(m.store); err != nil {
		m.mu.Lock()
		m.sessions[id] = s
		m.mu.Unlock()
		return nil, false, fmt.Errorf("%w: deleting %q from store: %w", ErrPersist, id, err)
	}
	m.free(id)
	if s.cache != nil {
		s.cache.releaseOwned(s.ID())
	}
	return s, true, nil
}

// IDs returns the live session IDs in deterministic order.
func (m *Manager) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sessions))
	for id, s := range m.sessions {
		if s != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Close closes the store. Nothing needs flushing first: every
// acknowledged answer is already in its session's log.
func (m *Manager) Close() error { return m.store.Close() }
