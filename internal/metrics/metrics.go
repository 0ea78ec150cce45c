// Package metrics is the repo's unified observability substrate: the
// counter/gauge/histogram primitives every subsystem's instrumentation
// is built on, and the named registry that snapshots and exposes them.
//
// The paper's headline claims are quantitative — one-minute confirmation
// latency, 750 MByte/h committed payload, flat scaling to 500k users
// (§10) — so the instrumentation must be cheap enough to leave on in
// every configuration that produces those numbers. Hot paths are single
// atomic operations with no locks and no allocation: a Counter.Add is
// one atomic add; a Histogram.Observe is one binary search over a small
// immutable bound slice plus two atomic adds. Registration happens once
// at construction; the registry lock is only taken when a metric is
// created or a snapshot/exposition is requested.
//
// Naming follows the Prometheus convention the exposition format
// implies: algorand_<subsystem>_<metric>[_total], with constant labels
// rendered into the registered name via Name (e.g.
// algorand_realnet_frames_out_total{peer="3"}). Counters end in _total;
// gauges and histograms do not.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a Counter must not be copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. The zero value is ready to
// use; a Gauge must not be copied after first use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with atomic
// increments, Prometheus-style: bucket i counts observations ≤
// bounds[i], with an implicit +Inf bucket at the end. Sum is maintained
// with a CAS loop over the float64 bit pattern.
type Histogram struct {
	bounds []float64 // ascending upper bounds; immutable after creation
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a standalone (unregistered) histogram over the
// given ascending bucket upper bounds. Most callers want
// Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus base
// unit for time).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation inside the containing bucket, the same
// estimate Prometheus's histogram_quantile computes. Returns 0 with no
// observations. The top (+Inf) bucket is clamped to its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		// The rank falls in bucket i.
		if i == len(h.bounds) {
			// +Inf bucket: clamp to the highest finite bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-cum)/n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCounts returns a stable copy of the per-bucket counts.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DurationBuckets is the default histogram layout for latencies:
// exponential from 1ms to ~137s, which brackets everything from a
// lock-free cache hit to the paper's one-minute confirmation budget.
func DurationBuckets() []float64 {
	out := make([]float64, 0, 18)
	for v := 0.001; v < 150; v *= 2 {
		out = append(out, v)
	}
	return out
}
