package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
)

// resolvedDigest hashes the sorted Matches and NonMatches of res.
func resolvedDigest(res *Result) string {
	h := sha256.New()
	for _, s := range []pair.Set{res.Matches, res.NonMatches} {
		for _, p := range s.Sorted() {
			fmt.Fprintf(h, "%d,%d;", p.U1, p.U2)
		}
		h.Write([]byte{'|'})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestDeduceUnderInconsistentCrowd pins Deduce-on runs under a crowd wrong
// on 20 % or 35 % of its labels, where confirmations contradict and a
// pair can be resolved both ways: the questions asked, the questions
// deduced, the loops and the resolved sets. Every case but d-y seed 1
// deduces at least one question. The hybrid=false segment keeps the
// subtest names stable across the removal of the loop's partial-order
// mode.
func TestDeduceUnderInconsistentCrowd(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		errorRate float64
		shards    int

		questions, deduced, loops int
		digest                    string
	}{
		{"iimb", 1, 0.35, 4, 3, 7, 1, "5e3398f411247fcf"},
		{"d-a", 1, 0.35, 1, 28, 2, 3, "ca1331e9c51df901"},
		{"d-a", 3, 0.35, 4, 59, 1, 6, "120243dbc8558796"},
		{"i-y", 1, 0.35, 4, 109, 1, 11, "03b486a4fac2b52e"},
		{"d-y", 1, 0.2, 4, 50, 0, 5, "d9cdaf6f93c89b9c"},
		{"d-y", 2, 0.2, 4, 322, 18, 34, "444dca8f4b900684"},
		{"d-y", 2, 0.35, 1, 319, 21, 34, "e8fda57996cc801f"},
		{"books", 3, 0.2, 1, 24, 6, 3, "290c7424362fe1cb"},
		{"books", 3, 0.35, 4, 25, 5, 3, "0fd3cfd2a3bd68c1"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d/hybrid=false/error=%v/shards=%d", tc.name, tc.seed, tc.errorRate, tc.shards), func(t *testing.T) {
			ds, err := datasets.ByName(tc.name, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Deduce, cfg.Shards, cfg.Seed = true, tc.shards, tc.seed
			res := Prepare(ds.K1, ds.K2, cfg).Run(crowd.NewPlatform(ds.Gold.IsMatch, crowd.Config{
				NumWorkers: 20, WorkersPerQuestion: 3, ErrorRate: tc.errorRate, Seed: tc.seed,
			}))
			got := fmt.Sprintf("questions=%d deduced=%d loops=%d digest=%s", res.Questions, res.Deduced, res.Loops, resolvedDigest(res))
			want := fmt.Sprintf("questions=%d deduced=%d loops=%d digest=%s", tc.questions, tc.deduced, tc.loops, tc.digest)
			if got != want {
				t.Errorf("got  %s\nwant %s", got, want)
			}
		})
	}
}
