// Package retain is the bounded, insertion-ordered retention the serving
// tiers share: a generic FIFO map (trace documents, run results,
// affinity hints) and the idempotency-key middleware built on it.
package retain

import (
	"container/list"
	"sync"
)

// FIFO is a bounded map that evicts in insertion order: once Len would
// exceed Cap, the oldest key goes. Re-putting a present key replaces
// its value and keeps its place; a deleted key loses its place, so a
// re-insert queues at the back like any new key. Safe for concurrent
// use.
type FIFO[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]slot[V]
	order list.List // keys, oldest first
}

type slot[V any] struct {
	val V
	el  *list.Element
}

// NewFIFO returns an empty FIFO holding at most cap entries.
func NewFIFO[K comparable, V any](cap int) *FIFO[K, V] {
	return &FIFO[K, V]{cap: cap, m: make(map[K]slot[V])}
}

// Put stores val under key, evicting the oldest entries past the cap.
func (f *FIFO[K, V]) Put(key K, val V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.m[key]; ok {
		s.val = val
		f.m[key] = s
		return
	}
	f.m[key] = slot[V]{val: val, el: f.order.PushBack(key)}
	for len(f.m) > f.cap {
		oldest := f.order.Front()
		f.order.Remove(oldest)
		delete(f.m, oldest.Value.(K))
	}
}

// Get returns the value stored under key.
func (f *FIFO[K, V]) Get(key K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.m[key]
	return s.val, ok
}

// Delete removes key and its place in the eviction order.
func (f *FIFO[K, V]) Delete(key K) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.m[key]; ok {
		f.order.Remove(s.el)
		delete(f.m, key)
	}
}

// Len is the number of entries held.
func (f *FIFO[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// Cap is the most entries the FIFO holds.
func (f *FIFO[K, V]) Cap() int { return f.cap }
