package obs

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-receiver-safe and allocation-free, so hot-path code increments
// unconditionally whether or not instrumentation is wired.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns an unregistered counter (registry constructors are
// the usual path; standalone counters serve tests and core hooks).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-receiver-safe.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// atomicFloat accumulates float64 values via CAS on the bit pattern, so
// Histogram sums stay allocation- and lock-free.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at
// construction. Bucket i holds observations v with v <= bounds[i]
// (Prometheus `le` semantics); one implicit +Inf bucket catches the
// rest. Observe is allocation-free: a binary search over the pre-sorted
// bounds, one atomic bucket increment, one CAS-summed float add and one
// count increment. Nil-receiver-safe.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Int64
}

// NewHistogram returns an unregistered histogram over the given upper
// bounds, which are sorted and deduplicated. Empty bounds give a
// +Inf-only histogram (count and sum remain useful).
func NewHistogram(bounds []float64) *Histogram {
	b := slices.Clone(bounds)
	slices.Sort(b)
	b = slices.Compact(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// SearchFloat64s finds the first bound >= v — exactly the smallest
	// bucket whose `le` admits v; off the end means +Inf.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveNS records a duration given in nanoseconds, in seconds (the
// Prometheus base unit for time).
func (h *Histogram) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	h.Observe(float64(ns) / 1e9)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// Buckets returns the bucket upper bounds and the cumulative counts up
// to and including each bound, plus the total (the +Inf count) last.
// The returned slices are fresh copies.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = slices.Clone(h.bounds)
	cumulative = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

// DefBuckets are latency buckets in seconds spanning 25µs to 10s —
// wide enough for both a WAL fsync and a full sharded loop turn.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}
