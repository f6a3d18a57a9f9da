package session

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
)

// TestShardedSessionMatchesUnsharded drives a sharded session with oracle
// labels delivered out of order and checks the result against a
// monolithic synchronous run — the session-level face of the sharding
// equivalence guarantee.
func TestShardedSessionMatchesUnsharded(t *testing.T) {
	k1, k2, gold := bookWorld(8, 51)

	cfgMono := testConfig(func(c *core.Config) { c.Shards = 1 })
	ref := core.Prepare(k1, k2, cfgMono).Run(core.NewOracleAsker(gold.IsMatch))

	cfgShard := testConfig(func(c *core.Config) { c.Shards = 4 })
	p := core.Prepare(k1, k2, cfgShard)
	if p.NumShards() < 2 {
		t.Fatalf("fixture produced %d shards, want ≥ 2", p.NumShards())
	}
	s := New("sharded", p, nil)
	for !s.Done() {
		batch := s.NextBatch()
		if len(batch) == 0 {
			t.Fatal("session stalled")
		}
		// Deliver in reverse order to exercise the buffering path on the
		// sharded machine.
		for i := len(batch) - 1; i >= 0; i-- {
			if err := s.Deliver(batch[i].ID, oracleLabels(gold, batch[i].Pair)); err != nil {
				t.Fatal(err)
			}
			if s.Done() {
				break
			}
		}
	}
	assertResultsIdentical(t, ref, s.Result())
	if got := s.Shards(); got != p.NumShards() {
		t.Errorf("Shards() = %d, want %d", got, p.NumShards())
	}
}

// TestSnapshotRecordsShardAssignment pins the snapshot fingerprint: the
// shard count and sizes are recorded, restore succeeds against an
// identically sharded pipeline, and a different shard count is rejected
// up front with a descriptive error.
func TestSnapshotRecordsShardAssignment(t *testing.T) {
	k1, k2, gold := bookWorld(6, 52)
	cfg := testConfig(func(c *core.Config) { c.Shards = 3 })
	p := core.Prepare(k1, k2, cfg)
	if p.NumShards() < 2 {
		t.Fatalf("fixture produced %d shards", p.NumShards())
	}
	s := New("snap", p, nil)
	// Answer one batch so the snapshot carries history.
	batch := s.NextBatch()
	if len(batch) == 0 {
		t.Fatal("no questions published")
	}
	for _, q := range batch {
		if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
			t.Fatal(err)
		}
		if s.Done() {
			break
		}
	}
	snap := s.snapshot()
	if snap.Shards != p.NumShards() {
		t.Errorf("snapshot.Shards = %d, want %d", snap.Shards, p.NumShards())
	}
	if len(snap.ShardSizes) != p.NumShards() {
		t.Errorf("snapshot.ShardSizes = %v, want %d entries", snap.ShardSizes, p.NumShards())
	}

	// Same shard count: restore replays cleanly.
	p2 := core.Prepare(k1, k2, cfg)
	restored, err := Restore(p2, nil, snap)
	if err != nil {
		t.Fatalf("restore against identical pipeline: %v", err)
	}
	q1, l1 := s.Progress()
	q2, l2 := restored.Progress()
	if q1 != q2 || l1 != l2 {
		t.Errorf("restored progress %d/%d, want %d/%d", q2, l2, q1, l1)
	}

	// Different shard count: rejected before any replay.
	cfgMono := testConfig(func(c *core.Config) { c.Shards = 1 })
	p3 := core.Prepare(k1, k2, cfgMono)
	if _, err := Restore(p3, nil, snap); err == nil {
		t.Fatal("restore accepted a snapshot from a differently sharded pipeline")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Errorf("divergence error does not mention shards: %v", err)
	}

	// Legacy snapshots (no shard fingerprint) still restore.
	legacy := *snap
	legacy.Shards = 0
	legacy.ShardSizes = nil
	if _, err := Restore(core.Prepare(k1, k2, cfg), nil, &legacy); err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
}

// TestRestoreAcceptsPreSplitFingerprint pins the compatibility rule for
// answer logs written while isolated vertices still sat in shards: such a
// snapshot's sizes are those of partition.Split over every graph vertex,
// summing to the whole graph; it restores — the partition it describes no
// longer exists, so there is nothing to compare — and the session finishes
// exactly as the one that was never interrupted. Sizes that fit neither
// that rule nor the engine shards' are still rejected up front.
func TestRestoreAcceptsPreSplitFingerprint(t *testing.T) {
	k1, k2, gold := bookWorld(8, 53)
	cfg := testConfig(func(c *core.Config) { c.Shards = 3 })
	p := core.Prepare(k1, k2, cfg)
	g := p.Graph
	isolated := len(g.Isolated())
	if p.NumShards() < 2 || isolated == 0 {
		t.Fatalf("fixture produced %d shards and %d isolated vertices, want ≥ 2 and some", p.NumShards(), isolated)
	}
	answer := func(s *Session, batches int) {
		for b := 0; !s.Done() && (batches < 0 || b < batches); b++ {
			for _, q := range s.NextBatch() {
				if err := s.Deliver(q.ID, oracleLabels(gold, q.Pair)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s := New("old", p, nil)
	answer(s, 1)
	if s.Done() {
		t.Fatal("fixture finished inside one batch")
	}
	snap := s.snapshot()
	if got, want := snap.ShardSizes, p.ShardSizes(); !slices.Equal(got, want) {
		t.Fatalf("snapshot records sizes %v, the engine shards hold %v", got, want)
	}

	// The fingerprint the parent of the split recorded for this pipeline.
	old := *snap
	whole := partition.Split(g.Vertices(), g.OutIndexesAt, cfg.Shards)
	old.Shards, old.ShardSizes = whole.NumShards(), whole.Sizes()
	restored, err := Restore(core.Prepare(k1, k2, cfg), nil, &old)
	if err != nil {
		t.Fatalf("snapshot with the pre-split fingerprint %v rejected: %v", old.ShardSizes, err)
	}
	answer(s, -1)
	answer(restored, -1)
	assertResultsIdentical(t, s.Result(), restored.Result())

	// Neither rule: the engine shards' sizes with one vertex moved.
	bad := *snap
	bad.ShardSizes = slices.Clone(snap.ShardSizes)
	bad.ShardSizes[0]++
	bad.ShardSizes[1]--
	if _, err := Restore(core.Prepare(k1, k2, cfg), nil, &bad); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("restore of a snapshot with foreign sizes %v: %v, want a shard divergence error", bad.ShardSizes, err)
	}
}
