package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is the server's bounded LRU result cache. Values are fully
// marshaled response bodies, so a hit replays the exact bytes the first
// computation produced — the cache-coherence tests assert byte identity.
// Keys are built by query.key from (graph identity, epoch, algo, vertex
// arguments, summary).
//
// A nil *resultCache is the "caching disabled" representation: get always
// misses and put is a no-op, so the handlers thread it unconditionally.
type resultCache struct {
	capacity int

	mu      sync.Mutex
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns a cache bounded to capacity entries, or nil
// (caching disabled) when capacity <= 0.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// get returns the cached body for key and refreshes its recency. The
// returned slice is shared — callers must not modify it.
func (c *resultCache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	body := el.Value.(*cacheEntry).body
	c.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// put stores body under key, evicting the least recently used entry once
// the bound is hit. Storing an existing key refreshes its body and
// recency.
func (c *resultCache) put(key string, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
}

// len reports the current entry count (0 when disabled).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// stats reports cumulative hit/miss counts (zeros when disabled).
func (c *resultCache) stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
