// Package obs is the observability layer: zero-dependency metric primitives
// (Counter, Gauge, Histogram), a Registry with Prometheus text-format
// exposition, HTTP middleware, a minimal exposition parser (for tests and the
// doclint -scrape smoke), and component-scoped structured logging on
// log/slog.
//
// The hot-path contract: every instrument mutation is a single atomic
// operation (plus a short bounds scan for histograms) — no locks, no
// allocations — so instrumented code paths keep their 0 allocs/op profile and
// /metrics can be scraped at any rate without perturbing them. Scrapes derive
// histogram cumulative bucket counts and _count from one pass of atomic
// loads, so exposed histograms are always internally monotone even while
// observations race the scrape.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use;
// all methods are safe for concurrent use and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= bounds[i]; one extra implicit +Inf bucket catches the
// rest. Buckets store per-bucket (not cumulative) counts; cumulative counts
// and the total are derived from one pass of atomic loads at scrape time, so
// a concurrent scrape always sees a monotone bucket series. Observe is
// lock-free and allocation-free. A nil *Histogram ignores observations, so
// optional instrumentation needs no guards.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Uint64   // float64 bits, advanced by CAS
}

// NewHistogram returns a histogram over the given strictly increasing upper
// bounds. It panics on empty or non-increasing bounds — histogram shapes are
// static configuration, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// DefBuckets is the default latency bucket layout (seconds): 100µs to 10s.
func DefBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Observe records one observation. Safe for concurrent use; no-op on a nil
// receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
