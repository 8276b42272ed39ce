package retain

import (
	"context"
	"sync"
	"sync/atomic"

	"roload/internal/schema"
)

// memoCap is how many entries every Memo holds.
const memoCap = 1024

// Memo is a bounded, single-flight memo: the first caller of a key
// computes its value, concurrent callers of the key park and share it,
// and later callers reuse it until cap pressure evicts the key, oldest
// first. It backs the eval Runner's image and measurement caches, the
// service's experiment cache and the Idempotency middleware. Safe for
// concurrent use.
//
// A computation that declines to keep its value, or panics, drops the
// entry and wakes its waiters, who lead afresh; a computation whose
// entry was evicted while it ran still hands its value to the waiters
// already parked on it, but does not store it.
type Memo[K comparable, V any] struct {
	// mu makes lookup-then-lead and check-then-drop atomic.
	mu      sync.Mutex
	entries *FIFO[K, *memoEntry[V]]
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// memoEntry is one key's computation. done closes exactly once, after
// val and kept are final.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	kept bool
}

// NewMemo returns an empty memo holding at most 1024 entries.
func NewMemo[K comparable, V any]() *Memo[K, V] { return newMemo[K, V](memoCap) }

func newMemo[K comparable, V any](cap int) *Memo[K, V] {
	return &Memo[K, V]{entries: NewFIFO[K, *memoEntry[V]](cap)}
}

// Do returns key's value. With no entry for key the caller leads: it
// runs fn on its own goroutine, and fn's bool says whether to keep the
// value for later callers. Otherwise the caller waits for the entry's
// value (led=false); if that value was not kept it leads afresh. A
// waiter whose ctx ends returns ctx.Err() without disturbing the
// leader. A panic in fn drops the entry and propagates to the leader.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, bool)) (v V, led bool, err error) {
	for {
		m.mu.Lock()
		e, ok := m.entries.Get(key)
		if !ok {
			e = &memoEntry[V]{done: make(chan struct{})}
			m.entries.Put(key, e)
			m.mu.Unlock()
			m.misses.Add(1)
			return m.lead(key, e, fn), true, nil
		}
		m.mu.Unlock()

		select {
		case <-e.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if e.kept {
			m.hits.Add(1)
			return e.val, false, nil
		}
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
	}
}

// lead runs fn for e, drops e unless fn kept its value, and wakes the
// waiters — also when fn panics.
func (m *Memo[K, V]) lead(key K, e *memoEntry[V], fn func() (V, bool)) V {
	defer func() {
		if !e.kept {
			m.mu.Lock()
			// Cap pressure may have evicted e while fn ran, and a new
			// leader may hold the key by now: drop only e itself.
			if cur, ok := m.entries.Get(key); ok && cur == e {
				m.entries.Delete(key)
			}
			m.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.kept = fn()
	return e.val
}

// Metrics snapshots the memo: Misses are computations led, Hits are
// calls served by another caller's computation.
func (m *Memo[K, V]) Metrics() schema.CacheMetrics {
	return schema.CacheMetrics{
		Entries: uint64(m.entries.Len()),
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
	}
}
