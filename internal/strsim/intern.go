package strsim

import (
	"bytes"
	"runtime"
	"slices"

	"repro/internal/pair"
)

// internShards is how many hash shards an Interner splits words into,
// one pool task each. It is a constant, not the CPU count: IDs are fixed
// by shard and first sight, so they are the same on every machine and
// under every schedule.
const internShards = 16

// shardShift takes a hash's top bits as its shard; a shard's table
// probes by the low bits.
const shardShift = 64 - 4

// Interner maps byte strings to dense uint32 IDs, 0 to Len()-1. It is
// the pre-pipeline's one string→ID map: blocking interns label tokens
// through it, and a Corpus its literals and their tokens. Sets cuts and
// hashes the words of each chunk of its texts in parallel, then interns
// them shard by shard, one pool task per shard, comparing the bytes of
// words whose hashes match. A word first seen in a call gets the next ID
// in (shard, first sight) order, so IDs depend on the texts and their
// order only. The zero value is ready; an Interner is safe for concurrent
// reads once Sets returns, and Sets calls must not race with anything.
type Interner struct {
	shards [internShards]internShard
	n      uint32
}

// internShard is an open-addressing table over its entries: a slot holds
// an entry's index + 1, 0 when empty, and entry e is the word
// buf[end[e]:end[e+1]], with hash hash[e] and ID id[e].
type internShard struct {
	slots []uint32
	hash  []uint64
	end   []int32
	buf   []byte
	id    []uint32
}

// find returns word's entry, adding it on first sight.
func (sh *internShard) find(word []byte, h uint64) uint32 {
	if 2*len(sh.id)+2 > len(sh.slots) {
		if sh.slots = make([]uint32, max(16, 2*len(sh.slots))); sh.end == nil {
			sh.end = []int32{0}
		}
		for e := range sh.id {
			sh.slots[sh.slot(sh.hash[e], nil)] = uint32(e) + 1
		}
	}
	i := sh.slot(h, word)
	if sh.slots[i] == 0 {
		sh.buf, sh.hash, sh.id = append(sh.buf, word...), append(sh.hash, h), append(sh.id, 0)
		sh.end, sh.slots[i] = append(sh.end, int32(len(sh.buf))), uint32(len(sh.id))
	}
	return sh.slots[i] - 1
}

// slot returns word's slot (its hash is h): its entry's, or the empty
// one where it belongs. A nil word matches no entry.
func (sh *internShard) slot(h uint64, word []byte) uint64 {
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := sh.slots[i]; e == 0 || sh.hash[e-1] == h && word != nil && bytes.Equal(sh.buf[sh.end[e-1]:sh.end[e]], word) {
			return i
		}
	}
}

// Len returns the number of interned strings.
func (in *Interner) Len() int { return int(in.n) }

// words is one chunk of texts cut into words: word i is
// buf[ends[i]:ends[i+1]], and the chunk's j-th text's words end at word
// last[j]. order lists the words shard by shard, shard s's being
// order[cut[s]:cut[s+1]].
type words struct {
	buf        []byte
	ends, last []int32
	hash       []uint64
	ids        []uint32
	order      []int32
	cut        [internShards + 1]int32
}

func (w *words) word(i int32) []byte { return w.buf[w.ends[i]:w.ends[i+1]] }

// Sets interns the texts text(0) to text(n-1) and returns each one's
// distinct IDs, ascending, in one flat array: text i's are
// ids[start[i]:start[i+1]]. With tokenize set a text's words are its
// stemmed AppendWords tokens, so the set is TokenSet's, by ID; without,
// a text is one word, verbatim. Cutting, interning and sorting fan out
// over r; text is called twice per text.
func (in *Interner) Sets(r pair.Runner, n int, text func(i int) string, tokenize bool) (start []int32, ids []uint32) {
	chunks := pair.ChunkRanges(n, r, runtime.NumCPU())
	batch := make([]words, len(chunks))
	pair.RunAll(r, len(chunks), func(ci int) {
		w, size := &batch[ci], 0 // a text's words take at most its bytes, save case changes
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			size += len(text(i))
		}
		w.buf, w.ends = make([]byte, 0, size), append(make([]int32, 0, size/4), 0)
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			if tokenize {
				w.buf, w.ends = AppendWords(w.buf, w.ends, text(i), true)
			} else {
				w.buf = append(w.buf, text(i)...)
				w.ends = append(w.ends, int32(len(w.buf)))
			}
			w.last = append(w.last, int32(len(w.ends)-1))
		}
		nw := len(w.ends) - 1
		w.hash, w.ids, w.order = make([]uint64, nw), make([]uint32, nw), make([]int32, nw)
		for i := range nw {
			w.hash[i] = wordHash(w.word(int32(i)))
			w.cut[w.hash[i]>>shardShift+1]++
		}
		for s := 0; s < internShards; s++ {
			w.cut[s+1] += w.cut[s]
		}
		next := w.cut
		for i, h := range w.hash {
			w.order[next[h>>shardShift]] = int32(i)
			next[h>>shardShift]++
		}
	})
	var from [internShards]int
	pair.RunAll(r, internShards, func(s int) {
		sh := &in.shards[s]
		from[s] = len(sh.id)
		for b := range batch {
			w := &batch[b]
			for _, i := range w.order[w.cut[s]:w.cut[s+1]] {
				w.ids[i] = sh.find(w.word(i), w.hash[i])
			}
		}
	})
	for s := range in.shards {
		for e := from[s]; e < len(in.shards[s].id); e++ {
			in.shards[s].id[e] = in.n
			in.n++
		}
	}
	pair.RunAll(r, len(chunks), func(ci int) {
		w, from, m := &batch[ci], int32(0), int32(0)
		for i, h := range w.hash {
			w.ids[i] = in.shards[h>>shardShift].id[w.ids[i]]
		}
		for j, last := range w.last {
			slices.Sort(w.ids[from:last])
			m += int32(copy(w.ids[m:], slices.Compact(w.ids[from:last])))
			from, w.last[j] = last, m
		}
		w.ids = w.ids[:m]
	})
	start = append(make([]int32, 0, n+1), 0)
	for ci := range batch {
		base := int32(len(ids))
		ids = append(ids, batch[ci].ids...)
		for _, last := range batch[ci].last {
			start = append(start, base+last)
		}
	}
	return start, ids
}

// wordHash is FNV-1a with a final mix, so that both the shard (top bits)
// and the slot (low bits) depend on every byte. It is a variable so that
// a test can make every word collide.
var wordHash = func(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>29
}
