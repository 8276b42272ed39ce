// Idempotency keys: a client that retries a request (backoff, hedging,
// reconnect, gateway failover) sends the same Idempotency-Key header,
// and the tier executes the body at most once per remembered key. The
// first request under a key is the leader and executes normally;
// concurrent duplicates park until the leader's verdict and then replay
// its response byte-for-byte, marked Idempotency-Replayed: true.
//
// Only a conclusive response is stored: one the handler actually wrote,
// whose status a resilient client does not retry. A 5xx, a shed
// 429/503, a panic or a handler that wrote nothing (the client vanished
// mid-proxy) aborts the entry, so the retry re-executes instead of
// replaying the failure forever. Both tiers remember at most
// idempotencyCap keys and evict the oldest first; an evicted key
// re-executes, and execution is deterministic, so the bytes repeat.
package retain

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"

	"roload/internal/schema"
)

// idempotencyCap is how many keys one tier remembers.
const idempotencyCap = 1024

// replayHeaders are the response headers a replay restores alongside
// the status and body.
var replayHeaders = [...]string{"Content-Type", "Location", "Roload-Trace", "Roload-Gateway-Backend"}

// Idempotency is the idempotency-key middleware of one tier. Create
// with NewIdempotency and wrap each keyed POST route with Wrap.
type Idempotency struct {
	// mu makes lookup-then-lead and check-then-publish atomic.
	mu      sync.Mutex
	entries *FIFO[string, *idemEntry]
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// idemEntry is one key's lifecycle. done closes exactly once, when the
// leader either stored a conclusive response (stored=true) or gave up
// (stored=false, entry removed, the next attempt leads again).
type idemEntry struct {
	done   chan struct{}
	stored bool
	status int
	body   []byte
	header [len(replayHeaders)]string // "" where the response had none
}

// NewIdempotency returns an empty middleware holding at most 1024 keys.
func NewIdempotency() *Idempotency { return newIdempotency(idempotencyCap) }

func newIdempotency(cap int) *Idempotency {
	return &Idempotency{entries: NewFIFO[string, *idemEntry](cap)}
}

// Metrics snapshots the cache for /metrics: Misses are executions led,
// Hits are replays served.
func (c *Idempotency) Metrics() schema.CacheMetrics {
	return schema.CacheMetrics{
		Entries: uint64(c.entries.Len()),
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
	}
}

// Wrap adds idempotency-key handling around h. Requests without the
// header pass straight through.
func (c *Idempotency) Wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			h(w, r)
			return
		}
		for {
			c.mu.Lock()
			e, ok := c.entries.Get(key)
			if !ok {
				e = &idemEntry{done: make(chan struct{})}
				c.entries.Put(key, e)
				c.mu.Unlock()
				c.misses.Add(1)
				c.lead(e, key, h, w, r)
				return
			}
			c.mu.Unlock()

			select {
			case <-e.done:
			case <-r.Context().Done():
				// Nobody is left to read an answer; the leader carries on.
				w.WriteHeader(http.StatusGatewayTimeout)
				return
			}
			if e.stored {
				c.hits.Add(1)
				for i, k := range replayHeaders {
					if v := e.header[i]; v != "" {
						w.Header().Set(k, v)
					}
				}
				w.Header().Set("Idempotency-Replayed", "true")
				w.WriteHeader(e.status)
				w.Write(e.body) //nolint:errcheck // client gone: nothing to report to
				return
			}
			// The leader concluded nothing storable; race to lead again.
		}
	}
}

// lead runs h as the key's leader and publishes a conclusive response.
// A panic propagates to the caller's recovery middleware after the
// entry is aborted.
func (c *Idempotency) lead(e *idemEntry, key string, h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
	finished := false
	defer func() {
		c.mu.Lock()
		// Cap pressure may have evicted the entry while the leader ran:
		// only the key's current entry may publish or abort.
		if cur, ok := c.entries.Get(key); ok && cur == e {
			if finished && rw.wrote && !retryableStatus(rw.status) {
				e.stored = true
				e.status = rw.status
				e.body = append([]byte(nil), rw.body.Bytes()...)
				for i, k := range replayHeaders {
					e.header[i] = rw.Header().Get(k)
				}
			} else {
				c.entries.Delete(key)
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	h(rw, r)
	finished = true
}

// recordingWriter records the response while streaming it to the
// client. wrote tells a real answer from a handler that bailed without
// writing: the default empty 200 is not a conclusive answer.
type recordingWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	body   bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// retryableStatus reports whether a status is one a resilient client
// retries — exactly the statuses that must not be stored.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}
