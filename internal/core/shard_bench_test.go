package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kb"
)

// BenchmarkShardedLoop measures the end-to-end human–machine loop
// (initial engine build through final classification, preparation
// excluded) on the clustered synthetic graph, monolithic versus sharded.
// The sharded loop wins even single-threaded: re-estimation rebuilds,
// candidate gathering and ranked selection are scoped to the shards a
// batch actually touched, and settled shards freeze outright.
func BenchmarkShardedLoop(b *testing.B) {
	ds := datasets.Clustered(48, 24, 1)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := Prepare(ds.K1, ds.K2, cfg)
				asker := NewOracleAsker(ds.Gold.IsMatch)
				b.StartTimer()
				_ = p.Run(asker)
			}
		})
	}
}

// BenchmarkPrepare measures Prepare at 4 shards on d-y, on a Scale pair
// and on remp-e2e loop-clustered's Clustered(120, 60), whose hubs make the
// neighbourhood joins dominate, and reports as heap-MB the live heap one
// Prepared holds: HeapAlloc after a forced GC with the result reachable,
// minus the reading before it was built (the KBs are live in both) —
// remp-e2e's prepared_heap_mb.
func BenchmarkPrepare(b *testing.B) {
	dy, err := datasets.ByName("d-y", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, ds := range []*datasets.Dataset{dy, datasets.Scale(10, 20_000), datasets.Clustered(120, 60, 1)} {
		b.Run(ds.Name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards = 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Prepare(ds.K1, ds.K2, cfg)
			}
			b.StopTimer()
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			before := m.HeapAlloc
			p := Prepare(ds.K1, ds.K2, cfg)
			runtime.GC()
			runtime.ReadMemStats(&m)
			runtime.KeepAlive(p)
			b.ReportMetric((float64(m.HeapAlloc)-float64(before))/1e6, "heap-MB")
		})
	}
}

// BenchmarkReestimate measures one steady-state re-estimation — the batch
// tail after µ answers — at 4 shards: the pending matches folded into the
// per-label statistics, the changed labels re-fitted, their rows rewritten
// in place and the affected balls invalidated. The fixture is built once
// per case: two earlier batches have run, so the statistics exist and the
// shards' rewriters are warm, and the answers of the measured batch are
// applied. After each timed step the fixture is restored outside the
// timer — the statistics, pending matches and estimates put back, and
// every shard rewritten to the restored estimates — so each step does the
// same work, and a plain -bench run finishes in seconds. The clustered
// graph's batch refits 4 of its 16 labels, lists of ≈ 110 rows over ≈ 5
// distinct observations; the Scale sibling (remp-e2e prepare-scale's loop
// shape: budget 1 500, classifier off) refits both of its 2 labels, lists
// of ≈ 410 rows over 2.
func BenchmarkReestimate(b *testing.B) {
	scale := DefaultConfig()
	scale.Budget, scale.ClassifyIsolated = 1500, false
	for _, bc := range []struct {
		name string
		ds   *datasets.Dataset
		cfg  Config
	}{
		{"clustered", datasets.Clustered(48, 24, 1), DefaultConfig()},
		{"scale", datasets.Scale(20, 5000), scale},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.cfg.Shards = 4
			p := Prepare(bc.ds.K1, bc.ds.K2, bc.cfg)
			asker := NewOracleAsker(bc.ds.Gold.IsMatch)
			l := p.NewLoop()
			for batch := 0; batch < 2; batch++ {
				for _, q := range l.Batch() {
					if err := l.Deliver(q, asker.Ask(q)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if l.Done() {
				b.Fatal("fixture finished before the measured batch")
			}
			for _, q := range l.Batch() {
				l.apply(q, asker.Ask(q)) // the loop never runs past the tail
			}
			stats, pending, est := l.stats.clone(), slices.Clone(l.pendingSeeds), l.est
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.reestimate()
				b.StopTimer()
				l.stats, l.est = stats.clone(), est
				l.pendingSeeds = append(l.pendingSeeds[:0], pending...)
				l.rebuildShards(func(int) bool { return true })
				b.StartTimer()
			}
		})
	}
}

// clone copies the statistics deeply enough that folding into the copy
// leaves st as it is, every list with its capacity, so a fold into the
// copy grows what a fold into st would; the label index by relationship
// is only read, so it is shared.
func (st *seedStats) clone() *seedStats {
	c := *st
	c.partners.first = withCap(st.partners.first)
	c.partners.more = make(map[kb.EntityID][]partner, len(st.partners.more))
	for u, ps := range st.partners.more {
		c.partners.more[u] = withCap(ps)
	}
	c.labels = withCap(st.labels)
	for li := range c.labels {
		ls := &c.labels[li]
		ls.seeds, ls.ranks, ls.obs = withCap(ls.seeds), withCap(ls.ranks), withCap(ls.obs)
	}
	c.reached, c.stamp = withCap(st.reached), withCap(st.stamp)
	return &c
}

// withCap copies s into a new array of s's capacity.
func withCap[S ~[]E, E any](s S) S { return append(make(S, 0, cap(s)), s...) }
