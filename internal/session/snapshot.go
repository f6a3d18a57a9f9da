package session

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/pair"
)

// SnapshotVersion is the current snapshot wire format.
const SnapshotVersion = 1

// Snapshot is a session's durable state: an event log rather than a state
// dump. Because the loop applies answers in a deterministic order fixed by
// question selection, replaying Applied through a freshly prepared
// pipeline reconstructs the exact machine state — engine balls, hard
// questions, resolved sets and all — without serializing any of it. Pending
// holds answers that had arrived out of order and were still buffered.
// The snapshot does not carry the dataset or the options; the caller must
// re-prepare the same pipeline (same KBs, same configuration) for Restore.
// Shards and ShardSizes fingerprint the pipeline's engine shards — the
// assignment of the vertices that have an edge; isolated vertices are in no
// shard — so a replay against a differently partitioned pipeline is
// rejected up front instead of diverging mid-replay.
type Snapshot struct {
	Version int         `json:"version"`
	ID      string      `json:"id"`
	Done    bool        `json:"done"`
	Applied []AnswerRec `json:"applied"`
	Pending []AnswerRec `json:"pending,omitempty"`
	// Shards is the engine-shard count of the pipeline the session ran
	// over (0 in snapshots written before sharding existed, which skips the
	// check on restore).
	Shards int `json:"shards,omitempty"`
	// ShardSizes is the per-shard count of vertices with an edge (absent
	// from older one-shard snapshots). Snapshots written while isolated
	// vertices still sat in shards carry sizes summing to the whole graph;
	// Restore accepts them without comparing (see there).
	ShardSizes []int `json:"shard_sizes,omitempty"`
}

// AnswerRec is one recorded answer in wire form.
type AnswerRec struct {
	U1     kb.EntityID `json:"u1"`
	U2     kb.EntityID `json:"u2"`
	Labels []Label     `json:"labels"`
}

func toRecs(answers []core.Answer) []AnswerRec {
	out := make([]AnswerRec, len(answers))
	for i, a := range answers {
		out[i] = AnswerRec{U1: a.Pair.U1, U2: a.Pair.U2, Labels: a.Labels}
	}
	return out
}

// Snapshot serializes the session's state to JSON: an event log of the
// answers applied so far (plus any buffered out of order), replayable
// against a freshly prepared pipeline. Persist it with the dataset and
// options used at creation; restoring needs all three. The session keeps
// running; snapshots are cheap (one record per answered question).
func (s *Session) Snapshot() ([]byte, error) { return json.Marshal(s.snapshot()) }

// snapshot captures the session's current state in struct form.
func (s *Session) snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Snapshot{
		Version:    SnapshotVersion,
		ID:         s.id,
		Done:       s.loop.Done(),
		Applied:    toRecs(s.loop.History()),
		Pending:    toRecs(s.loop.Buffered()),
		Shards:     s.loop.NumShards(),
		ShardSizes: s.loop.ShardSizes(),
	}
}

// DecodeSnapshot parses a JSON snapshot and checks its version.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("session: malformed snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("session: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	return &snap, nil
}

// Restore rebuilds a session from its snapshot by replaying the answer log
// through a new loop over p. The Prepared must be built from the same
// dataset and configuration the session was created with; a replayed
// answer that does not belong to the open batch it lands in proves the
// pipeline diverged and fails the restore, and a loop whose shard runner
// cannot start fails it with ErrRunner before anything is replayed.
// Replayed answers repopulate the shared cache (when present), so
// restoring after a process restart also restores cross-session
// suppression.
func Restore(p *core.Prepared, cache *Cache, snap *Snapshot) (*Session, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("session: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	if snap.ID == "" {
		return nil, fmt.Errorf("session: snapshot has no session id")
	}
	sizes := p.ShardSizes()
	connected, recorded := 0, 0
	for _, n := range sizes {
		connected += n
	}
	for _, n := range snap.ShardSizes {
		recorded += n
	}
	// Two kinds of snapshot carry no fingerprint to compare: Shards == 0
	// predates sharding, and sizes that sum to the graph's whole vertex
	// count, on a graph with isolated vertices, were recorded when shards
	// still held those — the partition they describe no longer exists.
	// Both replay under the loop's own fail-closed guard alone: an answer
	// outside the open batch proves divergence.
	if preSplit := recorded == p.Graph.NumVertices() && recorded > connected; snap.Shards > 0 && !preSplit {
		if len(sizes) != snap.Shards {
			return nil, fmt.Errorf("session: snapshot was taken over %d shards but the re-prepared pipeline has %d (same dataset, options and shard count are required)",
				snap.Shards, len(sizes))
		}
		if len(snap.ShardSizes) > 0 && !slices.Equal(sizes, snap.ShardSizes) {
			return nil, fmt.Errorf("session: snapshot shard assignment diverged: shards hold %v vertices, snapshot recorded %v",
				sizes, snap.ShardSizes)
		}
	}
	s := &Session{id: snap.ID, p: p, loop: p.NewLoop()}
	if err := s.loop.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRunner, err)
	}
	for i, rec := range append(append([]AnswerRec{}, snap.Applied...), snap.Pending...) {
		if err := s.loop.Deliver(pair.Pair{U1: rec.U1, U2: rec.U2}, rec.Labels); err != nil {
			s.loop.Close()
			return nil, fmt.Errorf("session: snapshot replay diverged at answer %d: %w", i, err)
		}
	}
	if snap.Done && !s.loop.Done() {
		err := fmt.Errorf("session: snapshot replay diverged: snapshot is done but the replayed loop is still %s", s.loop.State())
		s.loop.Close()
		return nil, err
	}
	if cache != nil {
		s.joinCache(cache)
	}
	return s, nil
}
