package strsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// wideRunner runs every task on its own goroutine, maximizing
// interleaving so the interning tests double as race tests under -race.
type wideRunner struct{}

func (wideRunner) ForEach(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// internRounds draws three rounds of random hostile literals, so that
// later rounds meet both known and new words.
func internRounds(seed int64) [][]string {
	r := rand.New(rand.NewSource(seed))
	rounds := make([][]string, 3)
	for ri := range rounds {
		for i := r.Intn(120); i > 0; i-- {
			lit := randLiteral(r)
			if r.Intn(4) == 0 {
				lit = fmt.Sprintf("%s w%d", lit, r.Intn(300))
			}
			rounds[ri] = append(rounds[ri], lit)
		}
	}
	return rounds
}

// internIDs interns rounds with r, one Sets call per round, all cut in
// one Workspace, and returns every round's starts and IDs.
func internIDs(rounds [][]string, r interface{ ForEach(int, func(int)) }, tokenize bool) (out [][2][]uint32) {
	var in Interner
	var ws Workspace
	for _, texts := range rounds {
		start, ids := in.Sets(&ws, r, len(texts), func(i int) string { return texts[i] }, tokenize)
		st := make([]uint32, len(start))
		for i, s := range start {
			st[i] = uint32(s)
		}
		out = append(out, [2][]uint32{st, ids})
	}
	return out
}

// checkInternedLikeMap holds untokenized IDs to a map-based reference:
// equal texts get equal IDs, different texts different ones, and a text
// first seen gets an ID no earlier text has, so IDs stay dense.
func checkInternedLikeMap(t *testing.T, ctx string, rounds [][]string, got [][2][]uint32) {
	t.Helper()
	byText := map[string]uint32{}
	byID := map[uint32]string{}
	for ri, texts := range rounds {
		for i, text := range texts {
			if got[ri][0][i+1]-got[ri][0][i] != 1 {
				t.Fatalf("%s: text %q has %d IDs, want 1", ctx, text, got[ri][0][i+1]-got[ri][0][i])
			}
			id := got[ri][1][got[ri][0][i]]
			if want, ok := byText[text]; ok && want != id {
				t.Fatalf("%s: %q got ID %d, earlier %d", ctx, text, id, want)
			}
			if other, ok := byID[id]; ok && other != text {
				t.Fatalf("%s: %q and %q share ID %d", ctx, text, other, id)
			}
			byText[text], byID[id] = id, text
		}
	}
	for id := range byID {
		if int(id) >= len(byID) {
			t.Fatalf("%s: ID %d among %d texts: not dense", ctx, id, len(byID))
		}
	}
}

// TestInternerIsDeterministicAndExact: the IDs of an Interner depend on
// the texts and their order only — serial, fanned out over goroutines,
// on one CPU and cut a few texts at a time, tokenized or not — and
// untokenized they equal a map's
// text identity; tokenized, each text's set has TokenSet's size. With
// every hash equal, the identity still holds: collisions are resolved by
// comparing bytes.
func TestInternerIsDeterministicAndExact(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rounds := internRounds(seed)
		for _, tokenize := range []bool{false, true} {
			ctx := fmt.Sprintf("seed %d, tokenize %v", seed, tokenize)
			serial := internIDs(rounds, nil, tokenize)
			if wide := internIDs(rounds, wideRunner{}, tokenize); !reflect.DeepEqual(wide, serial) {
				t.Fatalf("%s: IDs differ between serial and parallel interning", ctx)
			}
			prev := runtime.GOMAXPROCS(1)
			one := internIDs(rounds, wideRunner{}, tokenize)
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(one, serial) {
				t.Fatalf("%s: IDs differ under GOMAXPROCS=1", ctx)
			}
			prevBatch := internBatch
			internBatch = 7
			batched := internIDs(rounds, wideRunner{}, tokenize)
			internBatch = prevBatch
			if !reflect.DeepEqual(batched, serial) {
				t.Fatalf("%s: IDs differ when Sets cuts %d texts at a time", ctx, 7)
			}
			if !tokenize {
				checkInternedLikeMap(t, ctx, rounds, serial)
				continue
			}
			for ri, texts := range rounds {
				for i, text := range texts {
					set := serial[ri][1][serial[ri][0][i]:serial[ri][0][i+1]]
					if len(set) != len(TokenSet(text)) || !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
						t.Fatalf("%s: %q has IDs %v for tokens %q", ctx, text, set, TokenSet(text))
					}
				}
			}
		}
	}

	defer func(h func([]byte) uint64) { wordHash = h }(wordHash)
	wordHash = func([]byte) uint64 { return 0x9e3779b97f4a7c15 }
	for seed := int64(1); seed <= 3; seed++ {
		rounds := internRounds(seed)
		checkInternedLikeMap(t, fmt.Sprintf("constant hash, seed %d", seed), rounds, internIDs(rounds, wideRunner{}, false))
	}
}
