// Package qcache provides the initiator-side query caches: byte-bounded,
// generation-stamped maps that serve hot overlay fetches locally at zero
// message cost. A cache never answers across a validity boundary — every Get
// and Put carries a Stamp (the grid's membership epoch plus the store's
// write generation), and the first operation that observes a newer stamp
// drops the entire cached state. Invalidation is therefore wholesale and
// conservative: membership churn or a single write empties the cache rather
// than risking a stale answer, which keeps the correctness argument local to
// this file.
//
// Eviction under the byte bound is seeded-deterministic: victims are drawn
// from the insertion-ordered key list by a splitmix64 stream, so two runs
// that perform the identical operation sequence with the same seed evict the
// same entries and produce the same hit/miss trace — the property every
// message-count oracle in this repository relies on.
package qcache

import (
	"sync"

	"repro/internal/simnet"
)

// Stamp identifies the validity window of cached entries: the grid
// membership epoch (bumped by Join/Leave/RefreshRefs) and the store's write
// generation (bumped by every Insert/Delete). Entries cached under one stamp
// are never served under a newer one.
type Stamp struct {
	Epoch uint64
	Gen   uint64
}

// newer reports whether s supersedes o.
func (s Stamp) newer(o Stamp) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch > o.Epoch
	}
	return s.Gen > o.Gen
}

// Stats is a point-in-time snapshot of a cache's counters. Counters are
// cumulative over the cache's lifetime; Bytes and Entries describe the
// current contents.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Evictions     int64
	Invalidations int64
	Bytes         int64
	Entries       int64
}

// HitRatio is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Sub returns the counter deltas since an earlier snapshot (Bytes and
// Entries are carried from the newer snapshot — they are levels, not
// counters).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		Puts:          s.Puts - o.Puts,
		Evictions:     s.Evictions - o.Evictions,
		Invalidations: s.Invalidations - o.Invalidations,
		Bytes:         s.Bytes,
		Entries:       s.Entries,
	}
}

// Cache is a byte-bounded, stamp-validated map. The cost function accounts
// each entry's approximate heap bytes; inserting beyond the bound evicts
// seeded-deterministic victims until the new entry fits. Safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	seed    uint64
	cost    func(K, V) int
	stamp   Stamp
	entries map[K]V
	costs   map[K]int
	order   []K // insertion order; eviction draws victims from it
	bytes   int
	ticks   uint64 // eviction draw counter, part of the deterministic stream

	hits, misses, puts, evictions, invalidations int64
}

// New returns a cache bounded to approximately limit accounted bytes. cost
// reports the accounted size of one entry; entries costing more than the
// whole limit are simply not cached.
func New[K comparable, V any](limit int, seed int64, cost func(K, V) int) *Cache[K, V] {
	return &Cache[K, V]{
		limit:   limit,
		seed:    simnet.Splitmix64(uint64(seed) ^ 0x9E3779B97F4A7C15),
		cost:    cost,
		entries: make(map[K]V),
		costs:   make(map[K]int),
	}
}

// Get returns the entry cached for k, if any entry cached under st's
// validity window exists. A stamp newer than the cache's drops all cached
// state first (the churn/write invalidation path); a stamp older than the
// cache's — an operation that started before the cache moved on — misses
// without disturbing the newer contents.
func (c *Cache[K, V]) Get(st Stamp, k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(st)
	if st != c.stamp {
		c.misses++
		var zero V
		return zero, false
	}
	v, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put caches v for k under st. Puts carrying a stamp older than the cache's
// are dropped: the value was computed against state the cache has already
// invalidated past.
func (c *Cache[K, V]) Put(st Stamp, k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(st)
	if st != c.stamp {
		return
	}
	cost := c.cost(k, v)
	if cost > c.limit {
		return
	}
	if old, ok := c.costs[k]; ok {
		c.bytes -= old
		c.removeFromOrder(k)
	}
	for c.bytes+cost > c.limit && len(c.order) > 0 {
		c.evictOne()
	}
	c.entries[k] = v
	c.costs[k] = cost
	c.order = append(c.order, k)
	c.bytes += cost
	c.puts++
}

// advance moves the cache to a newer stamp, dropping everything cached under
// the old one. Callers hold c.mu.
func (c *Cache[K, V]) advance(st Stamp) {
	if !st.newer(c.stamp) {
		return
	}
	if len(c.entries) > 0 {
		// Reset in place: the maps keep their buckets for the next stamp's
		// entries instead of regrowing from empty after every invalidation.
		clear(c.entries)
		clear(c.costs)
		clear(c.order)
		c.order = c.order[:0]
		c.bytes = 0
		c.invalidations++
	}
	c.stamp = st
}

// evictOne removes one seeded-deterministic victim. Callers hold c.mu.
func (c *Cache[K, V]) evictOne() {
	i := int(simnet.Splitmix64(c.seed^c.ticks) % uint64(len(c.order)))
	c.ticks++
	k := c.order[i]
	c.order[i] = c.order[len(c.order)-1]
	c.order = c.order[:len(c.order)-1]
	c.bytes -= c.costs[k]
	delete(c.entries, k)
	delete(c.costs, k)
	c.evictions++
}

// removeFromOrder drops k's slot from the insertion list (overwrite path).
// Callers hold c.mu.
func (c *Cache[K, V]) removeFromOrder(k K) {
	for i := range c.order {
		if c.order[i] == k {
			c.order[i] = c.order[len(c.order)-1]
			c.order = c.order[:len(c.order)-1]
			return
		}
	}
}

// Stats snapshots the cache's counters and current size.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Puts:          c.puts,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Bytes:         int64(c.bytes),
		Entries:       int64(len(c.entries)),
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
