package remp

import (
	"repro/internal/core"
	"repro/internal/session"
)

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
		p, err := PreparePipelineWith(ds, opts, nil)
		return p, namespace, err
	})
	return m, ids, err
}

// NewSession prepares a pipeline and starts a managed session over it in
// the namespace. meta is stored with the session and handed back to the
// reopen function on recovery; pass nil when the manager's store does not
// outlive the process.
func (m *Manager) NewSession(ds Dataset, opts Options, namespace string, meta []byte) (*Session, error) {
	p, err := PreparePipelineWith(ds, opts, nil)
	if err != nil {
		return nil, err
	}
	return m.m.Create(p, namespace, meta)
}

// Get returns the managed session with the given ID.
func (m *Manager) Get(id string) (*Session, bool) { return m.m.Get(id) }

// Remove forgets a session, deletes its durable record and releases the
// questions it still had in flight, so sibling sessions can post them
// instead. It reports whether anything was removed: an ID that is not
// live but still holds a store record (a session whose recovery failed)
// is purged from the store.
func (m *Manager) Remove(id string) (bool, error) {
	_, removed, err := m.m.Remove(id)
	return removed, err
}

// SessionIDs returns the live session IDs in deterministic order.
func (m *Manager) SessionIDs() []string { return m.m.IDs() }

// Close closes the store; acknowledged answers are already durable.
func (m *Manager) Close() error { return m.m.Close() }
