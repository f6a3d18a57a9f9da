package kb_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kb"
)

// BenchmarkKBHeap reports what a live KB pair keeps on the heap against
// its snapshot bytes: open/snap for the pair ReadSnapshot decodes (a
// restarted server's and the prepare bench's path) and built/snap for the
// pair as its generator returns it. It fails when a decoded pair outweighs
// twice its snapshot.
//
//	go test -bench BenchmarkKBHeap -benchtime 3x -run '^$' ./internal/kb
func BenchmarkKBHeap(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func() *datasets.Dataset
	}{
		{"d-y", func() *datasets.Dataset { return datasets.DBpediaYAGO(1) }},
		{"clustered-120x60", func() *datasets.Dataset { return datasets.Clustered(120, 60, 1) }},
		{"scale-50000", func() *datasets.Dataset { return datasets.Scale(1, 50000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var built, open, snap float64
			for range b.N {
				before := liveHeap()
				ds := c.gen()
				kbs := []*kb.KB{ds.K1, ds.K2}
				ds = nil
				built = liveHeap() - before
				var snaps [][]byte
				snap = 0
				for _, k := range kbs {
					var buf bytes.Buffer
					if err := k.WriteSnapshot(&buf); err != nil {
						b.Fatal(err)
					}
					snaps = append(snaps, buf.Bytes())
					snap += float64(buf.Len())
				}
				kbs = nil
				before = liveHeap()
				for _, s := range snaps {
					k, err := kb.ReadSnapshot(s)
					if err != nil {
						b.Fatal(err)
					}
					kbs = append(kbs, k)
				}
				open = liveHeap() - before
				runtime.KeepAlive(kbs)
				runtime.KeepAlive(snaps)
			}
			b.ReportMetric(snap/1e6, "snap-MB")
			b.ReportMetric(open/snap, "open/snap")
			b.ReportMetric(built/snap, "built/snap")
			if open > 2*snap {
				b.Errorf("a decoded KB pair holds %.2f MB, over twice its %.2f MB of snapshot", open/1e6, snap/1e6)
			}
		})
	}
}

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
