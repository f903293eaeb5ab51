// Package lru is a map bounded to a fixed number of entries that, once full,
// drops the one used least recently: the list+map behind the engine's plan
// cache and the planner's plan templates.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a least-recently-used map of at most capacity entries. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front: most recently used; elements hold *entry
	entries  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding up to capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: max(capacity, 1), ll: list.New(), entries: make(map[K]*list.Element)}
}

// Get returns the value under key and marks it the most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key, replacing any value there, marks it the most
// recently used and, when the cache is over capacity, drops the least
// recently used entry.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
}

// Remove drops the entry under key, if any.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
