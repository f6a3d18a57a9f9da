package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/deduce"
)

// ErrSessionExists is returned by Manager.Restore when the snapshot's ID
// is already registered.
var ErrSessionExists = errors.New("session: id already exists")

// ErrPersist marks errors from the durable layer (the session Store):
// the session state is fine, the storage is not. Servers should map it
// to a 5xx, not a client error.
var ErrPersist = errors.New("session: persistence failure")

// ErrRunner marks a Create whose loop was dead at birth: its shard runner
// could not start (a cluster that would take no shard). No session exists.
var ErrRunner = errors.New("session: shard runner failed")

// Manager owns a set of concurrent sessions and the per-namespace answer
// caches they share. Sessions created in the same namespace — the same
// dataset, by convention — exchange answers through one Cache; distinct
// namespaces are fully isolated (entity IDs are only meaningful within one
// dataset). Every session's sharded pipeline draws its shard-level tasks
// from core's one GOMAXPROCS pool, shared by every loop in the process, so
// any number of managers and sessions fan out at most GOMAXPROCS shard
// tasks at once. Each engine's Dijkstra fan-out starts its own GOMAXPROCS
// workers inside a shard task (a pool task must not fan out on the pool).
//
// Every managed session is journaled into the Manager's Store: the
// session's pipeline meta and its snapshot at registration, then one log
// append per applied answer. Recover rebuilds the sessions a previous
// process left in the store. The default store is the in-memory MemStore
// (the same code path, no durability); give NewManagerStore a DiskStore
// for crash-safe sessions. All methods are safe for concurrent use.
type Manager struct {
	mu           sync.Mutex
	sessions     map[string]*Session
	caches       map[string]*Cache
	nextID       int
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
	return m.cacheLocked(namespace)
}

func (m *Manager) cacheLocked(namespace string) *Cache {
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
	id := m.claimID()
	cache := m.Cache(namespace)
	// New drains the cache outside the manager lock: it can run long and
	// only touches the session's own state plus the cache's own mutex.
	s := New(id, p, cache)
	if err := s.loop.Err(); err != nil {
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		cache.releaseOwned(id)
		return nil, fmt.Errorf("%w: %w", ErrRunner, err)
	}
	for {
		err := m.persistNew(s, meta, false)
		if err == nil {
			break
		}
		m.mu.Lock()
		delete(m.sessions, s.id)
		m.mu.Unlock()
		if !errors.Is(err, ErrStoreExists) {
			cache.releaseOwned(s.id)
			s.loop.Close()
			return nil, err
		}
		// A dormant store record (unrecovered or skipped at startup)
		// squats on this counter value; rebind the session to the next
		// free ID and try again. Rebinding is safe here: the session is
		// not yet registered, journaled, or holding reservations.
		s.id = m.claimID()
	}
	m.mu.Lock()
	m.sessions[s.id] = s
	m.mu.Unlock()
	return s, nil
}

// claimID allocates the next free session ID and claims its slot (nil
// placeholder) under the manager lock, so a concurrent Create or
// Restore cannot race onto the same ID.
func (m *Manager) claimID() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		m.nextID++
		id := fmt.Sprintf("s%d", m.nextID)
		if _, taken := m.sessions[id]; !taken {
			m.sessions[id] = nil
			return id
		}
	}
}

// persistNew writes the session's create record (meta + a snapshot of
// its current state, which covers any answers a cache drain already
// applied) and attaches the journaling persister. replace clears a
// stale store record under the same ID first.
func (m *Manager) persistNew(s *Session, meta []byte, replace bool) error {
	data, err := EncodeSnapshot(s.Snapshot())
	if err != nil {
		return fmt.Errorf("session: encoding initial snapshot: %w", err)
	}
	err = m.store.Create(s.ID(), meta, data)
	if replace && errors.Is(err, ErrStoreExists) {
		// The caller is explicitly restoring this ID from a snapshot it
		// holds; an unrecovered store record under the same ID is stale.
		if err = m.store.Delete(s.ID()); err == nil {
			err = m.store.Create(s.ID(), meta, data)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: storing %q: %w", ErrPersist, s.ID(), err)
	}
	s.attachPersist(&persister{store: m.store, id: s.ID(), fails: &m.persistFails})
	return nil
}

// Restore rebuilds a snapshotted session in the namespace and registers it
// under its snapshot ID, persisting it like a created session. p may be
// the pipeline live sessions already run over. It fails when the ID is
// already live.
func (m *Manager) Restore(p *core.Prepared, namespace string, meta []byte, snap *Snapshot) (*Session, error) {
	// Claim the ID (nil placeholder) up front, exactly like Create: a
	// concurrent Restore of the same snapshot must lose here, before
	// persistNew's replace path could delete the winner's live record.
	m.mu.Lock()
	if _, exists := m.sessions[snap.ID]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, snap.ID)
	}
	m.sessions[snap.ID] = nil
	cache := m.cacheLocked(namespace)
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		delete(m.sessions, snap.ID)
		m.mu.Unlock()
	}
	s, err := Restore(p, cache, snap)
	if err != nil {
		release()
		return nil, err
	}
	if err := m.persistNew(s, meta, true); err != nil {
		release()
		cache.releaseOwned(s.ID())
		s.loop.Close()
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessions[snap.ID] = s
	return s, nil
}

// Recover rebuilds every session the store holds — the process-restart
// path. prepare maps a stored session's meta blob back to a freshly
// prepared pipeline and its cache namespace. Each stored record is
// replayed through Restore, exactly like a snapshot handed in through
// the API. Sessions that fail to recover are skipped and reported in the
// joined error; the rest recover normally. Returns the recovered IDs in
// sorted order.
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

// recoverOne rebuilds one stored session and registers it.
func (m *Manager) recoverOne(id string, prepare func(id string, meta []byte) (*core.Prepared, string, error)) error {
	m.mu.Lock()
	_, live := m.sessions[id]
	m.mu.Unlock()
	if live {
		return ErrSessionExists
	}
	rec, err := m.store.Get(id)
	if err != nil {
		return err
	}
	snap, err := rec.Replay()
	if err != nil {
		return err
	}
	if snap.ID != id {
		return fmt.Errorf("stored snapshot carries id %q", snap.ID)
	}
	p, namespace, err := prepare(id, rec.Meta)
	if err != nil {
		return err
	}
	// Replay cache-free: a sibling's recovered answers must not advance
	// this loop past its own recorded history.
	s, err := Restore(p, nil, snap)
	if err != nil {
		return err
	}
	m.walReplayed.Add(int64(len(snap.Applied)))
	// Journal first, then join the namespace cache: the answers siblings
	// resolved while this session was down drain in at the join and are
	// appended to its log like any other delivery.
	s.attachPersist(&persister{store: m.store, id: id, fails: &m.persistFails})
	s.joinCache(m.Cache(namespace))
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.sessions[id]; exists {
		return ErrSessionExists
	}
	m.sessions[id] = s
	return nil
}

// Get returns the session registered under id. A slot claimed by an
// in-flight Create (nil placeholder) is not yet visible.
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
// can re-post its in-flight pairs. It reports whether anything was removed.
// The store delete comes first: if it fails the session stays
// registered and the Remove can be retried — unregistering first would
// strand an API-unreachable durable record that resurrects the session
// on the next restart. An ID that is not live but still has a store
// record (a session whose recovery failed, or one left dormant by a
// recovery-less OpenManager) is purged from the store, so broken
// records remain deletable through the API.
func (m *Manager) Remove(id string) (bool, error) {
	m.mu.Lock()
	s, tracked := m.sessions[id]
	m.mu.Unlock()
	if tracked && s == nil {
		// A Create or Restore still in flight; leave claimed slots be.
		return false, nil
	}
	if s == nil {
		// Not live: purge a dormant store record, if any.
		if _, err := m.store.Get(id); err != nil {
			if errors.Is(err, ErrStoreNotFound) {
				return false, nil
			}
			// The record exists but is unreadable (e.g. a corrupt log) —
			// exactly the thing an operator wants to delete; fall through.
		}
		if err := m.store.Delete(id); err != nil {
			return false, fmt.Errorf("%w: deleting %q from store: %w", ErrPersist, id, err)
		}
		return true, nil
	}
	if err := s.remove(m.store); err != nil {
		return false, fmt.Errorf("%w: deleting %q from store: %w", ErrPersist, id, err)
	}
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	if s.cache != nil {
		s.cache.releaseOwned(s.ID())
	}
	return true, nil
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
