package cache

import (
	"container/list"
	"sync"
)

// LRU is a mutex-guarded, entry-count-bounded map from string keys to
// resident values, evicting least-recently-used first. It backs the
// in-memory cache layer (Memory) and the resident server's parse-tree and
// compiled-patch caches. Values are treated as immutable once inserted —
// every use shares read-only artifacts — so Get returns the stored value
// without copying.
type LRU[V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an LRU bounded to max entries (fallback when max <= 0).
func NewLRU[V any](max, fallback int) *LRU[V] {
	if max <= 0 {
		max = fallback
	}
	return &LRU[V]{max: max, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached value and whether it was resident.
func (l *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if key == "" {
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.entries[key]
	if !ok {
		l.misses++
		return zero, false
	}
	l.hits++
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Add inserts (or refreshes) a value, evicting past the bound.
func (l *LRU[V]) Add(key string, val V) {
	if key == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		l.order.MoveToFront(el)
		return
	}
	l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, val: val})
	for l.order.Len() > l.max {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.entries, back.Value.(*lruEntry[V]).key)
		l.evicted++
	}
}

// Len reports the number of resident entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// HitsMisses reports how many Gets were answered vs not.
func (l *LRU[V]) HitsMisses() (hits, misses int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

// Evictions reports how many entries Add dropped to stay within the bound.
// Entries Clear drops are not counted.
func (l *LRU[V]) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Clear drops every entry (hit, miss and eviction counters are kept).
func (l *LRU[V]) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.order.Init()
	l.entries = map[string]*list.Element{}
}
