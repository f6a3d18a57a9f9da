package strsim

import (
	"bytes"
	"slices"

	"repro/internal/par"
)

// internShards is how many hash shards an Interner splits words into,
// one pool task each. It is a constant, not the CPU count: IDs are fixed
// by shard and first sight, so they are the same on every machine and
// under every schedule.
const internShards = 16

// shardShift takes a hash's top bits as its shard; a shard's table
// probes by the low bits.
const shardShift = 64 - 4

// refShift places a word's shard in the top bits of its entry while a
// Sets call runs: IDs are numbered only once every batch is interned, so
// until then a word holds shard<<refShift | its entry in the shard.
const refShift = 32 - 4

// internBatch is the fewest texts Sets cuts at a time; a call of n texts
// cuts max(internBatch, n/32). The Workspace holds one batch's words, so it
// takes a thirty-second of the call's at most, and a large call still
// hands each shard task enough words per batch to keep the shard's table
// in cache. It is a variable so that a test can cut batches of a few
// texts.
var internBatch = 1 << 13

// internGrain is the fewest texts a grain of a batch's cutting, or of the
// final sort, holds; the pool's workers take the grains from one cursor.
// It is a variable so that a test can cut grains of one text.
var internGrain = 256

// Interner maps words to dense uint32 IDs, 0 to Len()-1. It is the
// pre-pipeline's one string→ID map: blocking interns label tokens through
// it, and a Corpus literal tokens. Sets cuts and hashes the words of its
// texts a batch at a time, each batch's grains in parallel, then interns
// them shard by shard, one pool task per shard, comparing the bytes of
// words whose hashes match. A word first seen in a call gets the next ID
// in (shard, first sight) order, so IDs depend on the texts and their
// order only. The zero value is ready; an
// Interner is safe for concurrent reads once Sets returns, and Sets calls
// must not race with anything.
type Interner struct {
	shards [internShards]internShard
	n      uint32
}

// internShard is an open-addressing table over its entries: a slot holds
// an entry's index + 1, 0 when empty, and entry e is the word
// buf[end[e]:end[e+1]], whose hash's low half is hash[e]. The entries a
// Sets call adds are numbered when it ends, from one ID on, in entry
// order: runs lists those numberings, one per call that added any.
type internShard struct {
	slots []uint32
	hash  []uint32
	end   []int32
	buf   []byte
	runs  []idRun
}

// idRun numbers entries from entry on with IDs from id on.
type idRun struct{ entry, id uint32 }

// id returns entry e's ID, looking from the latest run back: a
// one-call Interner has one run.
func (sh *internShard) id(e uint32) uint32 {
	r := len(sh.runs) - 1
	for sh.runs[r].entry > e {
		r--
	}
	return sh.runs[r].id + e - sh.runs[r].entry
}

// find returns word's entry, adding it on first sight.
func (sh *internShard) find(word []byte, h uint64) uint32 {
	if 2*len(sh.hash)+2 > len(sh.slots) {
		if sh.slots = make([]uint32, max(16, 2*len(sh.slots))); sh.end == nil {
			sh.end = []int32{0}
		}
		for e, h := range sh.hash {
			sh.slots[sh.slot(h, nil)] = uint32(e) + 1
		}
	}
	i := sh.slot(uint32(h), word)
	if sh.slots[i] == 0 {
		sh.buf, sh.hash = append(grow(sh.buf, len(word)), word...), append(grow(sh.hash, 1), uint32(h))
		sh.end, sh.slots[i] = append(grow(sh.end, 1), int32(len(sh.buf))), uint32(len(sh.hash))
	}
	return sh.slots[i] - 1
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move: append alone grows a large slice by a
// quarter at a time, which allocates several times what it keeps.
func grow[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)+1))
}

// slot returns the slot of word, whose hash's low half is h: its entry's,
// or the empty one where it belongs. A nil word matches no entry.
func (sh *internShard) slot(h uint32, word []byte) uint32 {
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := sh.slots[i]; e == 0 || sh.hash[e-1] == h && word != nil && bytes.Equal(sh.buf[sh.end[e-1]:sh.end[e]], word) {
			return i
		}
	}
}

// Len returns the number of interned strings.
func (in *Interner) Len() int { return int(in.n) }

// Workspace holds the buffers Sets cuts and hashes one batch of texts in,
// a set per parallel grain of the batch. It outlives a call only to be
// reused by the next: one Workspace serves every Sets call of a pass,
// over any Interners, and is garbage with it. The zero value is ready.
// It is not safe for concurrent use.
type Workspace struct {
	grains []words
}

// words is one grain of texts cut into words: word i is
// buf[ends[i]:ends[i+1]] with hash hash[i], and goes to the call's
// output at out+i. order lists the words shard by shard, shard s's being
// order[cut[s]:cut[s+1]].
type words struct {
	buf   []byte
	ends  []int32
	hash  []uint64
	order []int32
	cut   [internShards + 1]int32
	out   int32
}

func (w *words) word(i int32) []byte { return w.buf[w.ends[i]:w.ends[i+1]] }

// split cuts texts lo to hi-1 into words, setting start[i+1] to the
// grain's word count after text i, and lays the words out by shard. The
// buffers keep their capacity from the last batch.
func (w *words) split(text func(i int) string, lo, hi int, start []int32) {
	w.buf, w.ends = w.buf[:0], append(w.ends[:0], 0)
	for i := lo; i < hi; i++ {
		s := text(i)
		// A text's words take at most its bytes, save case changes, and
		// are one byte and a separator apart.
		w.buf, w.ends = grow(w.buf, len(s)), grow(w.ends, len(s)/2+1)
		w.buf, w.ends = AppendWords(w.buf, w.ends, s, true)
		start[i+1] = int32(len(w.ends) - 1)
	}
	nw := len(w.ends) - 1
	w.hash, w.order, w.cut = grow(w.hash[:0], nw)[:nw], grow(w.order[:0], nw)[:nw], [internShards + 1]int32{}
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
}

// Sets interns the words of the texts text(0) to text(n-1) — their
// stemmed AppendWords tokens — and returns each text's distinct IDs,
// ascending, in one flat array: text i's are ids[start[i]:start[i+1]],
// TokenSet(text(i)) by ID. Texts are cut in ws (nil: a new one), a
// batch at a time. Cutting and the final sort fan out over r in grains of
// internGrain texts or more, which the workers take from one cursor, and
// interning in one task per shard. text is called once per text.
func (in *Interner) Sets(ws *Workspace, r par.Runner, n int, text func(i int) string) (start []int32, ids []uint32) {
	if ws == nil {
		ws = new(Workspace)
	}
	var from [internShards]int
	for s := range in.shards {
		from[s] = len(in.shards[s].hash)
	}
	start = make([]int32, n+1)
	batch := max(internBatch, n/32)
	for lo := 0; lo < n; lo += batch {
		hi := min(n, lo+batch)
		grains := par.Grains(r, hi-lo, internGrain)
		if len(ws.grains) < len(grains) {
			ws.grains = append(ws.grains, make([]words, len(grains)-len(ws.grains))...)
		}
		cut := ws.grains[:len(grains)]
		par.RunAll(r, len(grains), func(g int) {
			cut[g].split(text, lo+grains[g].Lo, lo+grains[g].Hi, start)
		})
		nw := int32(len(ids))
		for g, c := range grains {
			cut[g].out = nw
			for i := lo + c.Lo; i < lo+c.Hi; i++ {
				start[i+1] += nw
			}
			nw += int32(len(cut[g].hash))
		}
		if int(nw) > cap(ids) {
			// Room for the texts left at the words per text seen so far.
			ids = slices.Grow(ids, max(int(nw), int(int64(nw)*int64(n)/int64(hi)))-len(ids))
		}
		ids = ids[:nw]
		par.RunAll(r, internShards, func(s int) {
			sh := &in.shards[s]
			for g := range cut {
				w := &cut[g]
				for _, i := range w.order[w.cut[s]:w.cut[s+1]] {
					ids[w.out+i] = uint32(s)<<refShift | sh.find(w.word(i), w.hash[i])
				}
			}
		})
	}
	for s := range in.shards {
		sh := &in.shards[s]
		if added := len(sh.hash) - from[s]; added > 0 {
			sh.runs = append(sh.runs, idRun{entry: uint32(from[s]), id: in.n})
			in.n += uint32(added)
		}
	}

	// Resolve, sort and compact each text's words grain by grain, then
	// close the gaps compaction left between grains.
	grains := par.Grains(r, n, internGrain)
	span := make([][2]int32, len(grains)) // each grain's words before and after compaction
	for g, c := range grains {
		span[g][0] = start[c.Lo]
	}
	par.RunAll(r, len(grains), func(g int) {
		from, m := span[g][0], span[g][0]
		for i := grains[g].Lo; i < grains[g].Hi; i++ {
			set := ids[from:start[i+1]]
			for k, ref := range set {
				set[k] = in.shards[ref>>refShift].id(ref & (1<<refShift - 1))
			}
			slices.Sort(set)
			m += int32(copy(ids[m:], slices.Compact(set)))
			from, start[i+1] = start[i+1], m
		}
		span[g][1] = m
	})
	w := int32(0)
	for g, c := range grains {
		if d := span[g][0] - w; d != 0 {
			copy(ids[w:], ids[span[g][0]:span[g][1]])
			for i := c.Lo; i < c.Hi; i++ {
				start[i+1] -= d
			}
		}
		w += span[g][1] - span[g][0]
	}
	return start, ids[:w]
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
