package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustGet(t *testing.T, c *Cache, key string, val any) {
	t.Helper()
	got, _, err := c.GetOrCompute(context.Background(), key, func() (any, bool, error) { return val, true, nil })
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
		if _, _, err := c.GetOrCompute(context.Background(), key, func() (any, bool, error) { runs++; return runs, true, nil }); err != nil {
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
	compute := func() (any, bool, error) {
		calls++
		if calls == 1 {
			return nil, false, boom
		}
		return "ok", true, nil
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", compute); err != boom {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation must not be cached")
	}
	v, _, err := c.GetOrCompute(context.Background(), "k", compute)
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
		c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
			atomic.AddInt32(&computes, 1)
			close(entered)
			<-release
			return 42, true, nil
		})
	}()
	<-entered

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
				atomic.AddInt32(&computes, 1)
				return -1, true, nil
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
				v, _, err := c.GetOrCompute(context.Background(), key, func() (any, bool, error) { return k, true, nil })
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

// TestPurgeFencesTheFlightInFlight: a Purge while a computation runs still
// lets it answer its leader and its joiners, but fences it off — a caller
// after the Purge computes anew instead of joining it, and what the old
// flight computed never becomes resident.
func TestPurgeFencesTheFlightInFlight(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	entered, release := make(chan struct{}), make(chan struct{})
	leader, joiner := make(chan any, 1), make(chan any, 1)
	go func() {
		v, _, _ := c.GetOrCompute(ctx, "k", func() (any, bool, error) {
			close(entered)
			<-release
			return "before", true, nil
		})
		leader <- v
	}()
	<-entered
	go func() {
		v, _, _ := c.GetOrCompute(ctx, "k", func() (any, bool, error) {
			t.Error("a joiner from before the Purge must not compute")
			return nil, false, nil
		})
		joiner <- v
	}()
	for c.Stats().Dedups < 1 {
		runtime.Gosched()
	}
	c.Purge()

	after := make(chan any, 1)
	go func() {
		v, led, _ := c.GetOrCompute(ctx, "k", func() (any, bool, error) { return "after", true, nil })
		if !led {
			t.Error("a caller after the Purge joined the flight it fenced off")
		}
		after <- v
	}()
	select {
	case v := <-after:
		if v != "after" {
			t.Fatalf("a caller after the Purge got %v, want its own computation", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a caller after the Purge waits on the flight it fenced off")
	}
	close(release)
	if l, j := <-leader, <-joiner; l != "before" || j != "before" {
		t.Fatalf("leader got %v, joiner %v; want the fenced flight's value for both", l, j)
	}
	if v, ok := c.Get("k"); !ok || v != "after" {
		t.Fatalf("resident = %v, %v; want the value computed after the Purge, not the fenced one", v, ok)
	}
}

// TestJoinerLeavesWithItsContext: a joiner whose context ends returns its
// error at once, the leader's value still becomes resident, and every call is
// still counted exactly once.
func TestJoinerLeavesWithItsContext(t *testing.T) {
	c := New(8)
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
			close(entered)
			<-release
			return "kept", true, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func() (any, bool, error) {
			t.Error("a joiner must not compute")
			return nil, false, nil
		})
		left <- err
	}()
	for c.Stats().Dedups < 1 {
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-left:
		if err != context.Canceled {
			t.Fatalf("the joiner that left got %v, want its context's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a joiner whose context ended still waits for the leader")
	}
	close(release)
	<-done
	if v, ok := c.Get("k"); !ok || v != "kept" {
		t.Fatalf("resident = %v, %v; want the leader's value", v, ok)
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Dedups != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 calls counted, 1 compute", st)
	}
}
