package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution. Observe is lock-free: a
// binary search over the (immutable) bounds, one atomic bucket add, and
// one CAS-loop float add for the sum — ~30ns on current hardware, cheap
// enough for one observation per request stage or per fsync.
type Histogram struct {
	bounds []float64       // ascending upper bounds; implicit +Inf after
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Smallest bound with v <= bound; overflow bucket otherwise.
	i, j := 0, len(h.bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if h.bounds[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the elapsed time since t0 in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

func (h *Histogram) snapshot() *HistSnap {
	s := &HistSnap{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnap is a point-in-time histogram view.
type HistSnap struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf bucket
	Counts []uint64  // per-bucket (not cumulative)
	Count  uint64
	Sum    float64
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans 1µs..~8.4s in ×2 steps — wide enough for both a
// cache-hit cell decode and a multi-second degraded fsync.
var LatencyBuckets = ExpBuckets(1e-6, 2, 24)

// CountBuckets spans 1..32768 in ×2 steps, for batch sizes and
// per-request object counts.
var CountBuckets = ExpBuckets(1, 2, 16)

// SizeBuckets spans 256B..~64MB in ×4 steps, for payload and decode
// volumes.
var SizeBuckets = ExpBuckets(256, 4, 10)
