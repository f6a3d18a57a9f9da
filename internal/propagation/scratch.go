package propagation

import (
	"math"
	"math/bits"
	"sync"
)

// pending is one pending Dijkstra relaxation: the tentative distance and
// the vertex it reaches. Entries are plain values in the radix queue's
// slice-backed buckets, so pushes and pops never box through an interface.
type pending struct {
	d float64
	v int32
}

// scratch is the per-worker reusable state of a ζ-bounded single-source
// run: dense distances validated by epoch stamps (no clearing between
// runs), a monotone radix queue, the list of vertices touched this run
// (the emitted ball, source first, in arrival order) with the lowest and
// highest index reached, and the chunk a ball that outgrew its old
// storage is cut from. A run performs zero map operations; the arrays
// amortize across every source the worker processes. The chunk belongs to
// one inferSources worker for one call: putScratch drops it, so balls cut
// from it are never shared with another engine's, and a released engine
// frees its balls.
//
// The queue (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) keys an entry by
// math.Float64bits of its distance, which orders non-negative floats like
// their values. Dijkstra never pushes below the last pop, so bucket b
// holds the entries whose key first differs from that pop's key (last) in
// bit b−1, bucket 0 those equal to it. Distances are sums of lengths
// −log p ≥ 0 from the source's +0 (a length of −0 leaves a sum unchanged),
// so a key's sign bit is clear and 64 buckets suffice; occupied has bit b
// set while bucket b is non-empty, so opening a run and finding the next
// bucket cost one bit operation, however few entries a run queues.
type scratch struct {
	dist     []float64
	stamp    []uint32
	epoch    uint32
	bucket   [64][]pending
	occupied uint64
	last     uint64
	touched  []int32
	// lo and hi bound the indexes reached since inferFromIndex reset them
	// after reaching the source.
	lo, hi int32
	// chunk is the unused tail of the current chunk. left is how many
	// runs, the current one included, the worker still expects in this
	// call; inferSources sets it before each run.
	chunk Ball
	left  int
}

// maxChunk caps a chunk at 128 KiB of entries: a first build makes a few
// dozen chunks instead of one allocation per ball.
const maxChunk = 8192

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getScratch returns a pooled scratch sized for n vertices.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	return sc
}

// putScratch returns sc to the pool without its chunk.
func putScratch(sc *scratch) {
	sc.chunk, sc.left = nil, 0
	scratchPool.Put(sc)
}

// carve cuts an n-entry ball, full-slice-capped so that growing it cannot
// write into a neighbor, from the worker's chunk. A chunk with too little
// left is abandoned to the balls already cut from it; its successor is
// sized for the worker's remaining runs at this ball's size, up to
// maxChunk, so the tail a call leaves unused stays small.
//
//remp:hotpath
func (sc *scratch) carve(n int) Ball {
	if len(sc.chunk) < n {
		sc.chunk = make(Ball, max(n, min(n*sc.left, maxChunk)))
	}
	b := sc.chunk[:n:n]
	sc.chunk = sc.chunk[n:]
	return b
}

// begin opens a new run: bumping the epoch invalidates every stamp in
// O(1). On the (once per 4 billion runs) wraparound the stamps are zeroed
// so stale entries from the previous cycle cannot alias as valid. A run
// drains its queue, so the occupied buckets left to empty are normally
// none.
//
//remp:hotpath
func (sc *scratch) begin() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	for m := sc.occupied; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		sc.bucket[b] = sc.bucket[b][:0]
	}
	sc.occupied, sc.last = 0, 0
	sc.touched = sc.touched[:0]
}

// visited reports whether v was reached this run.
//
//remp:hotpath
func (sc *scratch) visited(v int32) bool { return sc.stamp[v] == sc.epoch }

// reach records the first arrival at v with distance d and widens the
// reached span to v.
//
//remp:hotpath
func (sc *scratch) reach(v int32, d float64) {
	sc.stamp[v] = sc.epoch
	sc.dist[v] = d
	sc.touched = append(sc.touched, v)
	sc.lo, sc.hi = min(sc.lo, v), max(sc.hi, v)
}

// push queues an entry whose distance is at least the last pop's.
//
//remp:hotpath
func (sc *scratch) push(e pending) {
	b := bits.Len64(math.Float64bits(e.d) ^ sc.last)
	sc.bucket[b] = append(sc.bucket[b], e)
	sc.occupied |= 1 << b
}

// pop removes and returns a minimum-distance entry; the queue must not be
// empty. When bucket 0 is empty, the lowest occupied bucket is spread
// around its minimum, which becomes last: its entries agree with that
// minimum above the bit that put them in the bucket, so each lands lower,
// the minimum in bucket 0.
//
//remp:hotpath
func (sc *scratch) pop() pending {
	if sc.occupied&1 == 0 {
		b := bits.TrailingZeros64(sc.occupied)
		spread := sc.bucket[b]
		low := spread[0].d
		for _, e := range spread[1:] {
			if e.d < low {
				low = e.d
			}
		}
		sc.last = math.Float64bits(low)
		sc.bucket[b] = spread[:0]
		sc.occupied &^= 1 << b
		for _, e := range spread {
			sc.push(e) // into a bucket below b: spread's array is not written
		}
	}
	b0 := sc.bucket[0]
	e := b0[len(b0)-1]
	sc.bucket[0] = b0[:len(b0)-1]
	if len(b0) == 1 {
		sc.occupied &^= 1
	}
	return e
}
