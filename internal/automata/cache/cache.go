// Package cache provides the concurrency-safe, size-bounded memoization
// layer under the automata compiler: an LRU keyed by opaque strings with
// singleflight-deduplicated computation and hit/miss/eviction/dedup
// counters.
//
// The package is deliberately generic — it knows nothing about DFAs or
// regular expressions — so its invariants can be property-tested in
// isolation (hammered from many goroutines under -race) and so other
// compile-once-use-everywhere artifacts can share it later. The automata
// package layers the canonical-key discipline (regex.Simplify +
// regex.Key) on top.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// ErrComputePanic is what waiters of a singleflight computation receive
// when the computing goroutine panicked: the flight is failed and removed
// (never cached), the panic propagates in the computing goroutine, and a
// later GetOrCompute for the same key retries cleanly.
var ErrComputePanic = errors.New("cache: computation panicked")

// Stats is a point-in-time snapshot of a cache's counters. Hits + Misses +
// Dedups equals the number of GetOrCompute calls; Misses equals the number
// of times the compute function actually ran. The metric/help tags declare
// the /metrics series of the compiled-automata cache, this package's first
// user (see obs.MetricWriter.Struct); another cache reporting a Stats
// re-declares the fields it wants series for, as mediator.Stats does for the
// verdict cache.
type Stats struct {
	// Hits counts lookups answered by a resident entry.
	Hits int64 `json:"hits" metric:"mix_automata_cache_hits_total" help:"Compiled-automata cache hits."`
	// Misses counts lookups that ran the compute function.
	Misses int64 `json:"misses" metric:"mix_automata_cache_misses_total" help:"Compiled-automata cache misses."`
	// Dedups counts lookups answered by another goroutine's in-flight
	// computation of the same key instead of their own (singleflight): at
	// most one compute runs per key at any moment.
	Dedups int64 `json:"dedups" metric:"mix_automata_cache_dedups_total" help:"Compiled-automata cache singleflight joins."`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions" metric:"mix_automata_cache_evictions_total" help:"Compiled-automata cache evictions."`
	// Size is the current number of resident entries; Capacity the bound.
	Size     int `json:"size" metric:"mix_automata_cache_size" help:"Entries currently in the compiled-automata cache."`
	Capacity int `json:"capacity"`
}

// Cache is a size-bounded LRU map with singleflight computation. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // of *entry; front = most recent
	order    *list.List
	inflight map[string]*call

	hits, misses, dedups, evictions int64
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation; joiners wait on wg and read val/err
// afterwards (the happens-before edge is wg.Done → wg.Wait).
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// New returns an empty cache bounded to capacity entries. A non-positive
// capacity is treated as 1 (a cache that cannot hold anything would turn
// every lookup into a compute, silently defeating the singleflight
// accounting the tests rely on).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		inflight: map[string]*call{},
	}
}

// Get returns the resident value for key, if any, marking it most recently
// used. It never triggers a computation and counts neither a hit nor a
// miss — use GetOrCompute for the instrumented path.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// GetOrCompute returns the cached value for key, computing and inserting
// it on a miss. Concurrent calls for the same key run compute once and share
// a successful result. An error is the leader's own — its budget ran out,
// its context was cancelled — so it is neither cached nor shared: a joiner
// whose flight failed starts over and runs its own compute (or joins the
// next flight), and is counted as the hit, miss or dedup it ends up being.
// A panicking compute cannot poison the key either: the flight is failed
// with ErrComputePanic for its waiters, who do return that (the computation
// itself is broken, not the leader's allowance), removed so future calls
// retry, and the panic then continues in the computing goroutine.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.order.MoveToFront(el)
			v := el.Value.(*entry).val
			c.mu.Unlock()
			return v, nil
		}
		f, ok := c.inflight[key]
		if !ok {
			break
		}
		c.dedups++
		c.mu.Unlock()
		f.wg.Wait()
		if f.err == nil || f.err == ErrComputePanic {
			return f.val, f.err
		}
		c.mu.Lock()
		c.dedups--
	}
	c.misses++
	f := &call{}
	f.wg.Add(1)
	c.inflight[key] = f
	c.mu.Unlock()

	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked before returning: unblock the waiters with an
		// error and drop the flight, then let the panic unwind.
		f.err = ErrComputePanic
		f.wg.Done()
		c.mu.Lock()
		if c.inflight[key] == f {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
	}()
	f.val, f.err = compute()
	completed = true

	// The flight is gone before its waiters wake, so one that starts over
	// finds the entry or a clean key, never this flight again.
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	f.wg.Done()
	return f.val, f.err
}

// insertLocked makes val resident under key unless something already is
// (a racing Purge and insert may have slipped in while it was computed: one
// element per key), evicting the least recently used past capacity. It
// reports whether val is what the key now holds.
func (c *Cache) insertLocked(key string, val any) bool {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
	return true
}

// Put makes val resident under key, as a computation that returned it would
// have, without being one: no hit, miss or dedup is counted. It is Get's
// counterpart, for a second name of a value that GetOrCompute already holds
// under its own, or for a value computed outside the cache. A key that is
// resident keeps its value, and Put reports false.
func (c *Cache) Put(key string, val any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(key, val)
}

// Values returns the resident values, most recently used first, without
// touching their recency: what a holder that accounts for the size of its
// entries sums when it is asked.
func (c *Cache) Values() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]any, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).val)
	}
	return out
}

// Purge drops every resident entry (in-flight computations finish but are
// written back normally). Counters are not reset; see ResetStats.
func (c *Cache) Purge() {
	c.mu.Lock()
	c.entries = map[string]*list.Element{}
	c.order.Init()
	c.mu.Unlock()
}

// ResetStats zeroes the counters without touching the entries.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	c.hits, c.misses, c.dedups, c.evictions = 0, 0, 0, 0
	c.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Evictions: c.evictions,
		Size:      c.order.Len(),
		Capacity:  c.capacity,
	}
}
