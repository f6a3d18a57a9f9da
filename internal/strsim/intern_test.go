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

// internIDs interns the rounds one Sets call each, through one Interner
// and one Workspace, and returns each call's offsets and IDs.
func internIDs(rounds [][]string, r interface{ ForEach(int, func(int)) }) (out [][2][]uint32) {
	var in Interner
	var ws Workspace
	for _, texts := range rounds {
		start, ids := in.Sets(&ws, r, len(texts), func(i int) string { return texts[i] })
		st := make([]uint32, len(start))
		for i, s := range start {
			st[i] = uint32(s)
		}
		out = append(out, [2][]uint32{st, ids})
	}
	return out
}

// checkInternedLikeMap holds the IDs of one-word texts to a map-based
// reference: texts with equal words get equal IDs, different words
// different ones, and a word first seen gets an ID no earlier word has, so
// IDs stay dense.
func checkInternedLikeMap(t *testing.T, ctx string, rounds [][]string, got [][2][]uint32) {
	t.Helper()
	byWord := map[string]uint32{}
	byID := map[uint32]string{}
	for ri, texts := range rounds {
		for i, text := range texts {
			if got[ri][0][i+1]-got[ri][0][i] != 1 {
				t.Fatalf("%s: text %q has %d IDs, want 1", ctx, text, got[ri][0][i+1]-got[ri][0][i])
			}
			word, id := Tokenize(text)[0], got[ri][1][got[ri][0][i]]
			if want, ok := byWord[word]; ok && want != id {
				t.Fatalf("%s: %q got ID %d, earlier %d", ctx, word, id, want)
			}
			if other, ok := byID[id]; ok && other != word {
				t.Fatalf("%s: %q and %q share ID %d", ctx, word, other, id)
			}
			byWord[word], byID[id] = id, word
		}
	}
	for id := range byID {
		if int(id) >= len(byID) {
			t.Fatalf("%s: ID %d among %d words: not dense", ctx, id, len(byID))
		}
	}
}

// wordRounds turns each round's texts into one text per word.
func wordRounds(rounds [][]string) [][]string {
	out := make([][]string, len(rounds))
	for ri, texts := range rounds {
		for _, text := range texts {
			out[ri] = append(out[ri], Tokenize(text)...)
		}
	}
	return out
}

// TestInternerIsDeterministicAndExact: the IDs of an Interner depend on
// the texts and their order only — serial, fanned out over goroutines,
// on one CPU and cut a few texts at a time — each text's set has
// TokenSet's size, and on one-word texts the IDs equal a map's word
// identity. With every hash equal, the identity still holds: collisions
// are resolved by comparing bytes.
func TestInternerIsDeterministicAndExact(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rounds := internRounds(seed)
		ctx := fmt.Sprintf("seed %d", seed)
		serial := internIDs(rounds, nil)
		if wide := internIDs(rounds, wideRunner{}); !reflect.DeepEqual(wide, serial) {
			t.Fatalf("%s: IDs differ between serial and parallel interning", ctx)
		}
		prev := runtime.GOMAXPROCS(1)
		one := internIDs(rounds, wideRunner{})
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(one, serial) {
			t.Fatalf("%s: IDs differ under GOMAXPROCS=1", ctx)
		}
		prevBatch := internBatch
		internBatch = 7
		batched := internIDs(rounds, wideRunner{})
		internBatch = prevBatch
		if !reflect.DeepEqual(batched, serial) {
			t.Fatalf("%s: IDs differ when Sets cuts %d texts at a time", ctx, 7)
		}
		for ri, texts := range rounds {
			for i, text := range texts {
				set := serial[ri][1][serial[ri][0][i]:serial[ri][0][i+1]]
				if len(set) != len(TokenSet(text)) || !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
					t.Fatalf("%s: %q has IDs %v for tokens %q", ctx, text, set, TokenSet(text))
				}
			}
		}
		words := wordRounds(rounds)
		checkInternedLikeMap(t, ctx, words, internIDs(words, nil))
	}

	defer func(h func([]byte) uint64) { wordHash = h }(wordHash)
	wordHash = func([]byte) uint64 { return 0x9e3779b97f4a7c15 }
	for seed := int64(1); seed <= 3; seed++ {
		words := wordRounds(internRounds(seed))
		checkInternedLikeMap(t, fmt.Sprintf("constant hash, seed %d", seed), words, internIDs(words, wideRunner{}))
	}
}
