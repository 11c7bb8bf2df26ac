package obs

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the upper bounds (seconds) of the fixed
// latency buckets: 500µs to 10s in roughly 1-2.5-5 steps, the range that
// matters for a mediator request (sub-millisecond cache hits through
// multi-second degraded blowup inferences). The final implicit bucket is
// +Inf.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with lock-free Observe.
// The zero value is unusable; use NewHistogram.
type Histogram struct {
	bounds []float64 // upper bounds, seconds, ascending
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram returns a histogram over DefaultLatencyBuckets.
func NewHistogram() *Histogram { return NewHistogramBuckets(DefaultLatencyBuckets) }

// NewHistogramBuckets returns a histogram over the given ascending upper
// bounds (seconds); an implicit +Inf bucket is appended.
func NewHistogramBuckets(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	secs := d.Seconds()
	// Linear scan: the bucket list is short and the scan is branch-
	// predictable; a binary search would not beat it at len 14.
	i := len(h.bounds)
	for b, ub := range h.bounds {
		if secs <= ub {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
}

// HistogramSnapshot is a point-in-time copy of a histogram, serializable
// to JSON and Prometheus text exposition. Counts are per-bucket
// (non-cumulative); Counts[len(Bounds)] is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Counts     []int64   `json:"counts"`
	Count      int64     `json:"count"`
	SumSeconds float64   `json:"sum_seconds"`
	// P50/P95/P99 are bucket-interpolated quantile estimates, precomputed
	// so a JSON consumer need not re-derive them.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot copies the histogram. The bucket counts are read without a
// global lock, so a snapshot taken during concurrent Observes may be off
// by the in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive Count from the bucket sum so Count == sum(Counts) even when
	// racing Observes; Sum is advisory.
	s.Count = total
	s.SumSeconds = float64(h.sum.Load()) / 1e9
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the containing bucket. Returns 0 for an empty
// histogram; observations in the +Inf bucket report the last finite
// bound (a floor, not a fabricated value).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		ub := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (ub-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramSet is a set of histograms by name, for names drawn from a small
// set that is fixed in practice (route patterns, span names) but not in
// principle (a client picks the HTTP method): a name's first Get takes a lock
// and copies the map, every later one is a load and a map read — no lock, no
// allocation — and once max names are taken the rest share "other".
type HistogramSet struct {
	max    int
	mu     sync.Mutex // serializes growth
	byName atomic.Pointer[map[string]*Histogram]
}

// NewHistogramSet returns an empty set that will hold up to limit names
// (and "other").
func NewHistogramSet(limit int) *HistogramSet {
	s := &HistogramSet{max: limit}
	s.byName.Store(&map[string]*Histogram{})
	return s
}

// Get returns the histogram of name, made on first use.
func (s *HistogramSet) Get(name string) *Histogram {
	if h := (*s.byName.Load())[name]; h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.byName.Load()
	if old[name] == nil && len(old) >= s.max {
		name = "other"
	}
	if h := old[name]; h != nil {
		return h
	}
	grown := maps.Clone(old)
	grown[name] = NewHistogram()
	s.byName.Store(&grown)
	return grown[name]
}

// Snapshot copies every histogram of the set, by name.
func (s *HistogramSet) Snapshot() map[string]HistogramSnapshot {
	out := map[string]HistogramSnapshot{}
	for name, h := range *s.byName.Load() {
		out[name] = h.Snapshot()
	}
	return out
}
