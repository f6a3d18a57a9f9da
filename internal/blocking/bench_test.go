package blocking

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/datasets"
)

// The blocking benchmark family measures candidate generation on the
// scale stress dataset (the workload behind the 1M-entity Prepare
// benchmark) at a size where the retained naive path is still cheap
// enough to benchmark alongside.

const benchScale = 5_000

// chunkRunner is a minimal Runner for benchmarks: it fans the tasks out
// over NumCPU goroutines, the same shape core.Scheduler provides in the
// real pipeline (which blocking cannot import without a cycle).
type chunkRunner struct{}

func (chunkRunner) ForEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

func BenchmarkGenerateIndexed(b *testing.B) {
	ds := datasets.Scale(1, benchScale)
	opts := Options{Threshold: 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Generate(ds.K1, ds.K2, opts)
		if len(r.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkGenerateIndexedParallel(b *testing.B) {
	ds := datasets.Scale(1, benchScale)
	opts := Options{Threshold: 0.3, Runner: chunkRunner{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Generate(ds.K1, ds.K2, opts)
		if len(r.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkGenerate50k is the benchmark harness's prepare-scale size: the
// counting kernel's figure (ns/op, allocs/op) behind blocking.generate_s.
func BenchmarkGenerate50k(b *testing.B) {
	ds := datasets.Scale(1, 50_000)
	opts := Options{Threshold: 0.3, Runner: chunkRunner{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Generate(ds.K1, ds.K2, opts)
		if len(r.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkGenerateNaive(b *testing.B) {
	ds := datasets.Scale(1, benchScale)
	opts := Options{Threshold: 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := GenerateNaive(ds.K1, ds.K2, opts)
		if len(r.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}
