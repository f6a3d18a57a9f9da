package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/crowd"
	"repro/internal/datasets"
)

// noisyPlatform is a fallible simulated crowd (10 % worker error); every
// call with the same arguments answers identically.
func noisyPlatform(ds *datasets.Dataset) *crowd.Platform {
	return crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{
		NumWorkers: 20, WorkersPerQuestion: 3, ErrorRate: 0.10, Seed: 9,
	})
}

// fingerprint hashes everything reachable from a Prepared that a loop
// could conceivably write: every shard's probabilistic graph — fmt walks
// the unexported CSR, length and degree arrays by reflection, and prints
// floats in their shortest round-trip form, so equal text means equal bits
// — plus the dense priors, the isolated vertices and the vertex routing,
// the initial consistency fit (fmt prints maps in key order), and every
// vertex's row id and the distinct rows (similarity vector and prior) they
// name. It leaves out p.iso, the
// classifier's memo and the inputs it builds on first use: that state is
// written by design, under its own lock, and holds only what a pure
// function of the plan and an outcome returns.
func fingerprint(p *Prepared) [sha256.Size]byte {
	h := sha256.New()
	for _, sp := range p.shards {
		fmt.Fprintf(h, "%v|%v|", *sp.prob, sp.prior)
	}
	fmt.Fprintf(h, "%v|%v|", p.isolated, p.home)
	fmt.Fprintf(h, "%v|%v|%v", p.Consistency, p.rowOf, p.rows)
	return [sha256.Size]byte(h.Sum(nil))
}

// TestPreparedIsImmutable pins the contract that lets loops share a
// Prepared: a full Run leaves the pipeline bit-equal to what Prepare
// returned, and a second Run over it returns what the first did. Before
// the shard states cloned their graphs the second run diverged (iimb:
// 363 vs 364 matches). The fullResync=false segment keeps the subtest
// names stable across the removal of the from-scratch test mode.
func TestPreparedIsImmutable(t *testing.T) {
	for _, name := range []string{"iimb", "d-y", "books"} {
		ds, err := datasets.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d/fullResync=false", name, shards), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Shards = shards
				p := Prepare(ds.K1, ds.K2, cfg)
				if p.NumShards() != shards {
					t.Fatalf("fixture produced %d shards, want %d", p.NumShards(), shards)
				}
				before := fingerprint(p)
				first := p.Run(noisyPlatform(ds))
				if first.NonMatches.Len() == 0 {
					t.Fatal("fixture too easy: no non-matches, so nothing was detached")
				}
				if fingerprint(p) != before {
					t.Fatal("Run wrote to the Prepared")
				}
				assertResultsIdentical(t, first, p.Run(noisyPlatform(ds)))
				if fingerprint(p) != before {
					t.Fatal("the second Run wrote to the Prepared")
				}
			})
		}
	}
}

// TestConcurrentLoopsShareOnePrepared runs eight loops at once over one
// Prepared; each must equal a run over a Prepared of its own. Run with
// -race: the loops may share nothing they write.
func TestConcurrentLoopsShareOnePrepared(t *testing.T) {
	const loops = 8
	ds := datasets.Clustered(24, 10, 7)
	// The hybrid=false segment keeps the subtest names stable across the
	// removal of the loop's partial-order mode.
	for _, ded := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("hybrid=false/deduce=%v/shards=%d", ded, shards), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Deduce, cfg.Shards = ded, shards
				want := Prepare(ds.K1, ds.K2, cfg).Run(noisyPlatform(ds))

				shared := Prepare(ds.K1, ds.K2, cfg)
				got := make([]*Result, loops)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = shared.Run(noisyPlatform(ds))
					}()
				}
				wg.Wait()
				for _, res := range got {
					assertResultsIdentical(t, want, res)
				}
			})
		}
	}
}
