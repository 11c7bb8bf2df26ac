// Package cache holds the one rule by which a costly thing is done once
// while others wait — Flight: claim, join, land, start over, fence — and the
// concurrency-safe, size-bounded LRU built on it, keyed by opaque strings,
// with hit/miss/eviction/dedup counters. It is deliberately generic — it
// knows nothing about DFAs, plans or documents — so its invariants can be
// tested in isolation, hammered from many goroutines under -race. The
// automata compiler, the verdict, DTD-info, plan and /infer memos use the
// LRU; the part slots and the forward slots hold flights of their own.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// ErrComputePanic is what the joiners of a Flight receive when its leader
// panicked: the flight lands failed and is never kept, the panic propagates
// in the leader, and a later claim of the same place retries cleanly.
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
	// Dedups counts lookups that joined another's computation of the same
	// key (singleflight) instead of running their own.
	Dedups int64 `json:"dedups" metric:"mix_automata_cache_dedups_total" help:"Compiled-automata cache singleflight joins."`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions" metric:"mix_automata_cache_evictions_total" help:"Compiled-automata cache evictions."`
	// Size is the current number of resident entries; Capacity the bound.
	Size     int `json:"size" metric:"mix_automata_cache_size" help:"Entries currently in the compiled-automata cache."`
	Capacity int `json:"capacity"`
}

// Cache is a size-bounded LRU map whose misses are Flights. The zero value is
// not usable; construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // of *entry; front = most recent
	order    *list.List
	inflight map[string]*Flight[any]

	hits, misses, dedups, evictions int64
}

type entry struct {
	key string
	val any
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
		inflight: map[string]*Flight[any]{},
	}
}

// Get returns the resident value for key, if any, marking it most recently
// used. It never triggers a computation and counts neither a hit nor a
// miss — use GetOrCompute for the instrumented path.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touchLocked(c.entries[key])
}

// GetBytes is Get for a key the caller holds as bytes: the lookup makes no
// string of them.
func (c *Cache) GetBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touchLocked(c.entries[string(key)])
}

// touchLocked is Get's answer for what the lookup found, el (nil: nothing).
func (c *Cache) touchLocked(el *list.Element) (any, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// GetOrCompute returns the value resident under key, or else what a Flight
// of compute lands: concurrent calls for one key run compute once, and led
// reports that this call ran it. Only a value compute says to keep, computed
// while no Purge fenced its flight off, becomes resident. A value not to be
// kept, and an error (a budget ran out, a context ended), are the leader's
// own: its joiners start over, each counted as the hit, miss or dedup it ends
// up being. A joiner whose ctx ends first returns its error, as a dedup.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() (val any, keep bool, err error)) (val any, led bool, err error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.order.MoveToFront(el)
			val = el.Value.(*entry).val
			c.mu.Unlock()
			return val, false, nil
		}
		f := c.inflight[key]
		if f == nil {
			break
		}
		c.dedups++
		c.mu.Unlock()
		val, err, redo := f.Wait(ctx)
		if !redo {
			return val, false, err
		}
		c.mu.Lock()
		c.dedups--
	}
	c.misses++
	f := new(Flight[any]).Start()
	c.inflight[key] = f
	c.mu.Unlock()

	keep := false
	val, err = f.Run(&c.mu, func() (v any, err error) {
		v, keep, err = compute()
		return v, err
	}, func(v any, err error) bool {
		if c.inflight[key] == f { // else Purge fenced f off
			delete(c.inflight, key)
			if keep && err == nil {
				c.insertLocked(key, v)
			}
		}
		return !keep || err != nil
	})
	return val, true, err
}

// insertLocked makes val resident under key unless something already is
// (a Put may have slipped in while it was computed: one element per key),
// evicting the least recently used past capacity. It
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

// Purge drops every resident entry and fences off every flight in progress:
// it still answers its leader and its joiners, but its value is not kept, and
// a later call for its key computes anew. Counters are not reset; see
// ResetStats.
func (c *Cache) Purge() {
	c.mu.Lock()
	c.entries = map[string]*list.Element{}
	c.order.Init()
	clear(c.inflight)
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
