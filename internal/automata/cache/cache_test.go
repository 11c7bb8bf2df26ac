package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func mustGet(t *testing.T, c *Cache, key string, val any) {
	t.Helper()
	got, err := c.GetOrCompute(key, func() (any, error) { return val, nil })
	if err != nil || got != val {
		t.Fatalf("GetOrCompute(%q) = %v, %v; want %v", key, got, err, val)
	}
}

func TestHitMissCounters(t *testing.T) {
	c := New(10)
	mustGet(t, c, "a", 1)
	mustGet(t, c, "a", 1)
	mustGet(t, c, "b", 2)
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Dedups != 0 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit / 0 dedups", st)
	}
	if st.Size != 2 || st.Capacity != 10 {
		t.Errorf("size/capacity = %d/%d, want 2/10", st.Size, st.Capacity)
	}
}

// TestLRUEviction fills past capacity and checks that exactly the least
// recently used keys fall out — including that a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := New(3)
	mustGet(t, c, "a", 1)
	mustGet(t, c, "b", 2)
	mustGet(t, c, "c", 3)
	// Touch "a" so "b" is now the oldest.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a must be resident")
	}
	mustGet(t, c, "d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b must have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s must survive the eviction", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 3 {
		t.Errorf("stats = %+v, want 1 eviction at size 3", st)
	}
}

// TestRecomputeAfterEviction: an evicted key is a miss again (the compute
// function runs a second time).
func TestRecomputeAfterEviction(t *testing.T) {
	c := New(1)
	runs := 0
	get := func(key string) {
		if _, err := c.GetOrCompute(key, func() (any, error) { runs++; return runs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b") // evicts a
	get("a") // recompute
	if runs != 3 {
		t.Errorf("compute ran %d times, want 3", runs)
	}
}

// TestErrorsNotCached: a failed computation must leave the key absent so
// the next call retries, and must never count as a resident entry.
func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	calls := 0
	compute := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := c.GetOrCompute("k", compute); err != boom {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation must not be cached")
	}
	v, err := c.GetOrCompute("k", compute)
	if err != nil || v != "ok" {
		t.Fatalf("retry = %v, %v; want ok", v, err)
	}
}

func TestPurgeAndResetStats(t *testing.T) {
	c := New(8)
	mustGet(t, c, "a", 1)
	mustGet(t, c, "a", 1)
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("Purge must drop entries")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Purge must keep counters, got %+v", st)
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("ResetStats must zero counters, got %+v", st)
	}
}

// TestSingleflightBlocksJoiners: while one computation is in flight,
// joiners must wait for it and share the result rather than recompute.
func TestSingleflightBlocksJoiners(t *testing.T) {
	c := New(8)
	entered := make(chan struct{})
	release := make(chan struct{})
	var computes int32

	go func() {
		c.GetOrCompute("k", func() (any, error) {
			atomic.AddInt32(&computes, 1)
			close(entered)
			<-release
			return 42, nil
		})
	}()
	<-entered

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCompute("k", func() (any, error) {
				atomic.AddInt32(&computes, 1)
				return -1, nil
			})
			if err != nil || v != 42 {
				t.Errorf("joiner got %v, %v; want 42", v, err)
			}
		}()
	}
	// Joiners are now either blocked on the in-flight call or about to be;
	// release the leader and verify exactly one compute ran.
	for c.Stats().Dedups < joiners {
		runtime.Gosched() // until all joiners registered; bounded by the test timeout
	}
	close(release)
	wg.Wait()
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Errorf("compute ran %d times, want 1 (singleflight)", n)
	}
}

// TestHammer drives the cache from many goroutines over a keyspace larger
// than the capacity (forcing evictions and recomputes) and then checks the
// counter identities that must hold no matter how the schedule interleaved.
func TestHammer(t *testing.T) {
	const (
		capacity = 32
		keys     = 96
		workers  = 16
		perW     = 500
	)
	c := New(capacity)
	var wg sync.WaitGroup
	var bad int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := (w*31 + i*17) % keys
				key := fmt.Sprintf("k%03d", k)
				v, err := c.GetOrCompute(key, func() (any, error) { return k, nil })
				if err != nil || v.(int) != k {
					atomic.AddInt32(&bad, 1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if bad != 0 {
		t.Fatalf("%d workers read a wrong value", bad)
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Dedups != workers*perW {
		t.Errorf("hits(%d)+misses(%d)+dedups(%d) != %d calls", st.Hits, st.Misses, st.Dedups, workers*perW)
	}
	if st.Size > capacity {
		t.Errorf("size %d exceeds capacity %d", st.Size, capacity)
	}
	if st.Misses < keys {
		t.Errorf("misses = %d, want at least one per key (%d)", st.Misses, keys)
	}
	if int(st.Evictions) < int(st.Misses)-capacity {
		t.Errorf("evictions = %d inconsistent with %d misses at capacity %d", st.Evictions, st.Misses, capacity)
	}
}

func TestCapacityClamp(t *testing.T) {
	c := New(0)
	if got := c.Stats().Capacity; got != 1 {
		t.Errorf("capacity = %d, want clamp to 1", got)
	}
}

// TestPutAndValues: Put counts nothing, says whether its value is the one
// now held (a resident key keeps what it had), evicts like any insert, and
// Values lists what is resident, most recent first, without touching recency.
func TestPutAndValues(t *testing.T) {
	c := New(2)
	if !c.Put("a", 1) || !c.Put("b", 2) {
		t.Fatal("Put into free room must store")
	}
	if c.Put("a", 9) {
		t.Error("Put over a resident key must report false")
	}
	if v, _ := c.Get("a"); v != 1 {
		t.Errorf("a = %v, want the first value kept", v)
	}
	if got := fmt.Sprint(c.Values()); got != "[1 2]" {
		t.Errorf("Values = %s, want [1 2]", got)
	}
	c.Values()
	if !c.Put("c", 3) { // b is the least recently used: Values moved nothing
		t.Fatal("Put past capacity must store")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b must have been evicted")
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Dedups != 0 || st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want no lookups counted, 1 eviction, size 2", st)
	}
}
