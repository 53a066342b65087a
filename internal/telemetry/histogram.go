package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// atomicFloat is a lock-free float64 accumulator (CAS on the bit
// pattern).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// rawSampleCap is how many raw observations a histogram retains: while
// the total count is at or below it, quantiles are computed exactly
// from the retained samples instead of by bucket interpolation, so
// short runs report precise tails.
const rawSampleCap = 64

// Histogram is a fixed-bucket histogram with lock-free observation:
// bucket i counts values in (bounds[i-1], bounds[i]], with an implicit
// +Inf overflow bucket. Buckets are fixed at registration so the hot
// path is a binary search plus a handful of atomic updates — no locks,
// no allocation. Quantiles are exact while the sample count fits the
// raw-sample buffer and estimated by linear interpolation inside the
// covering bucket after that; min and max are tracked exactly always.
type Histogram struct {
	name, help string
	bounds     []float64 // strictly increasing upper bounds
	counts     []atomic.Uint64
	count      atomic.Uint64
	sum        atomicFloat
	minBits    atomic.Uint64 // float bits; +Inf while empty
	maxBits    atomic.Uint64 // float bits; -Inf while empty
	raw        [rawSampleCap]atomic.Uint64
}

// newHistogram builds a histogram; nil/empty bounds get DurationBuckets.
func newHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Safe on a nil receiver and for concurrent
// use; allocates nothing.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	if n := h.count.Add(1); n <= rawSampleCap {
		h.raw[n-1].Store(math.Float64bits(v))
	}
	h.sum.Add(v)
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Min returns the smallest observed value (0 for nil or empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observed value (0 for nil or empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the q-th quantile (0 < q <= 1). While the sample
// count fits the raw buffer the value is exact (nearest-rank on the
// retained samples); beyond that it is estimated by linear
// interpolation within the covering bucket — exact to within one
// bucket's width, which is the resolution contract callers pick via
// the bucket layout. The overflow bucket clamps to the largest bound;
// an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if total <= rawSampleCap {
		return exactQuantile(h.sortedRaw(int(total)), q)
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: no finite upper edge to
				// interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if lo > hi {
				lo = hi
			}
			return lo + (hi-lo)*((rank-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Quantiles fills out with the quantile for each q in qs — the
// configurable-quantile API behind snapshots (callers pick the list,
// e.g. 0.5/0.95/0.99/0.999). out must be at least len(qs) long; the
// filled prefix is returned. Each quantile follows the same
// exact-then-interpolated contract as Quantile.
func (h *Histogram) Quantiles(qs, out []float64) []float64 {
	out = out[:len(qs)]
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// sortedRaw returns the first n retained raw samples, sorted.
func (h *Histogram) sortedRaw(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(h.raw[i].Load())
	}
	sort.Float64s(out)
	return out
}

// exactQuantile is the nearest-rank quantile of a sorted sample.
func exactQuantile(s []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// snapshotBuckets returns the bucket bounds with cumulative counts —
// the Prometheus histogram shape.
func (h *Histogram) snapshotBuckets() (bounds []float64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced upper bounds.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// DurationBuckets spans 1µs to ~17s exponentially — the default layout
// for wall-clock spans (scheduling, inference, model updates).
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 2, 25) }

// CountBuckets spans 1 to 32768 in powers of two — for discrete sizes
// (binary-search iterations, SLA checks per placement, batch sizes).
func CountBuckets() []float64 { return ExpBuckets(1, 2, 16) }

// RatioBuckets spans (0, 1] in 5% steps — for utilization fractions.
func RatioBuckets() []float64 { return LinearBuckets(0.05, 0.05, 20) }
