package obs

import (
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed, deterministic buckets chosen at
// construction. Bucket i counts observations v <= bounds[i] (Prometheus
// "le" semantics, cumulative at export); the implicit final bucket catches
// everything else. Observe is a binary search plus two atomic adds —
// allocation-free and safe for concurrent writers. Nil-safe.
type Histogram struct {
	bounds []uint64        // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64
	count  atomic.Uint64
}

// newHistogram validates and copies the bounds. Panics on unsorted or
// duplicate bounds: bucket layouts are build-time constants, and a bad one
// would silently misbucket every observation.
func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// NewHistogram builds a standalone (unregistered) histogram with the given
// fixed ascending bucket upper bounds — for per-session or otherwise
// high-cardinality latency tracking that should not flood the registry.
// Panics on unsorted bounds, like registry-owned histograms.
func NewHistogram(bounds []uint64) *Histogram {
	return newHistogram(bounds)
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values
// by linear interpolation within the bucket containing the target rank.
// Returns 0 with no observations; values in the +Inf bucket clamp to the
// highest finite bound. Nil-safe. The estimate is only as fine as the
// bucket layout — good enough for p50/p99 dashboards, not for SLA math.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	var cum uint64
	return bucketQuantile(q, float64(total), len(h.bounds), func(i int) (float64, float64) {
		cum += h.counts[i].Load()
		return float64(h.bounds[i]), float64(cum)
	})
}

// bucketQuantile interpolates the q-quantile (q clamped to [0, 1]) of a
// histogram with n finite buckets and total observations, the +Inf
// bucket's included. bucket(i), called once per bucket in ascending
// order, returns bucket i's upper bound and the cumulative count up to
// it. The target rank is interpolated linearly inside the first
// non-empty bucket that reaches it, from the previous bound (0 for the
// first); a rank in the +Inf bucket clamps to the last finite bound.
// Histogram.Quantile and PromText.HistQuantile share it.
func bucketQuantile(q, total float64, n int, bucket func(i int) (le, cum float64)) float64 {
	rank := min(max(q, 0), 1) * total
	lower, prev := 0.0, 0.0
	for i := 0; i < n; i++ {
		le, cum := bucket(i)
		if cum >= rank && cum > prev {
			return lower + (le-lower)*max((rank-prev)/(cum-prev), 0)
		}
		lower, prev = le, cum
	}
	return lower
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns total observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the upper bounds and the *cumulative* count at each bound
// (Prometheus le semantics), excluding the +Inf bucket; the +Inf cumulative
// count equals Count.
func (h *Histogram) Buckets() (bounds []uint64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]uint64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]uint64, len(h.bounds))
	var c uint64
	for i := range h.bounds {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

// QuantileSorted returns the q-quantile of an ascending-sorted sample by
// linear interpolation between order statistics — the exact (non-bucketed)
// counterpart of Histogram.Quantile, used for client-side latency
// percentiles where the full sample is in hand. Returns 0 on an empty
// sample.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// Pow2Buckets returns ascending power-of-two bucket bounds from 1<<lo to
// 1<<hi inclusive — the deterministic default layout for block-count and
// latency histograms.
func Pow2Buckets(lo, hi uint) []uint64 {
	if hi < lo {
		hi = lo
	}
	out := make([]uint64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, uint64(1)<<e)
	}
	return out
}
