package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 90 fast (≈1ms), 9 medium (≈60ms), 1 slow (≈2s).
	for i := 0; i < 90; i++ {
		h.Observe(800 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(60 * time.Millisecond)
	}
	h.Observe(2 * time.Second)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
	if s.SumSeconds < 2.6 || s.SumSeconds > 2.7 {
		t.Errorf("sum seconds = %v, want ≈2.612", s.SumSeconds)
	}
	if s.P50 > 0.001 {
		t.Errorf("p50 = %v, want within the 1ms bucket", s.P50)
	}
	if s.P95 < 0.05 || s.P95 > 0.1 {
		t.Errorf("p95 = %v, want within the 100ms bucket", s.P95)
	}
	if s.P99 < 0.05 {
		t.Errorf("p99 = %v, want ≥ p95 region", s.P99)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogramBuckets([]float64{0.001, 0.01})
	h.Observe(5 * time.Second) // beyond every finite bound
	s := h.Snapshot()
	if s.Counts[2] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Counts[2])
	}
	// Quantile of an all-overflow histogram floors at the last bound.
	if q := s.Quantile(0.99); q != 0.01 {
		t.Errorf("quantile = %v, want last finite bound 0.01", q)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // no-op
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("nil histogram snapshot = %+v", s)
	}
	s2 := NewHistogram().Snapshot()
	if s2.Count != 0 || s2.P99 != 0 {
		t.Errorf("empty snapshot = %+v", s2)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%20) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestHistogramSetConcurrentFirstSight: goroutines meeting the same new
// names at once all get the one histogram per name — no observation lands in
// a map that lost the race to be stored — and names past the limit share
// "other".
func TestHistogramSetConcurrentFirstSight(t *testing.T) {
	const workers, names, limit = 8, 12, 10
	s := NewHistogramSet(limit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				s.Get(fmt.Sprintf("n%02d", i)).Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if len(snap) != limit+1 {
		t.Fatalf("%d names, want %d and other", len(snap), limit)
	}
	var total int64
	for name, h := range snap {
		total += h.Count
		if name != "other" && h.Count != workers {
			t.Errorf("%s: %d observations, want %d", name, h.Count, workers)
		}
	}
	if total != workers*names || snap["other"].Count != workers*(names-limit) {
		t.Errorf("%d observations (%d under other), want %d (%d)", total, snap["other"].Count, workers*names, workers*(names-limit))
	}
}
