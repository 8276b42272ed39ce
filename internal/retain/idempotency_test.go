package retain

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// execHandler answers every execution with the status the test set,
// a body naming the execution number, and the replayed headers naming
// it too — a replay must serve execution n's bytes and headers
// verbatim. Status 0 writes nothing (the client vanished mid-proxy).
type execHandler struct {
	mu     sync.Mutex
	status int
	execs  int
}

func (x *execHandler) set(status int) {
	x.mu.Lock()
	x.status = status
	x.mu.Unlock()
}

func (x *execHandler) count() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.execs
}

func (x *execHandler) serve(w http.ResponseWriter, r *http.Request) {
	x.mu.Lock()
	x.execs++
	n, st := strconv.Itoa(x.execs), x.status
	x.mu.Unlock()
	if st == 0 {
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Location", "/v1/runs/run-"+n)
	h.Set("Roload-Trace", "run-"+n)
	h.Set("Roload-Gateway-Backend", "http://exec-"+n)
	h.Set("Roload-Gateway-Attempts", n) // not a replayed header
	w.WriteHeader(st)
	w.Write([]byte(`{"execution":` + n + `}`)) //nolint:errcheck
}

func do(ctx context.Context, h http.HandlerFunc, key string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil).WithContext(ctx)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

// step is one request (or n concurrent copies of it) and the response
// it must get.
type step struct {
	key    string
	status int  // the handler's answer if it executes (0: writes nothing)
	copies int  // concurrent copies (0 means 1); exactly one may execute
	exec   int  // the execution whose answer comes back (0: empty body)
	replay bool // Idempotency-Replayed: true
}

func TestIdempotency(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		steps []step
		// entries and hits are the final metrics (-1: not checked).
		entries, hits int
	}{
		{name: "replay", cap: idempotencyCap, steps: []step{
			{key: "k1", status: 200, exec: 1},
			{key: "k1", exec: 1, replay: true},
			{key: "k2", status: 200, exec: 2},
			{key: "", status: 200, exec: 3}, // keyless always executes
			{key: "", status: 200, exec: 4},
		}, entries: 2, hits: 1},
		// Statuses a resilient client retries (5xx, 429) must not be
		// stored; a conclusive 200 or 400 is.
		{name: "retryable not pinned", cap: idempotencyCap, steps: []step{
			{key: "k", status: 503, exec: 1},
			{key: "k", status: 429, exec: 2},
			{key: "k", status: 200, exec: 3},
			{key: "k", exec: 3, replay: true},
			{key: "k400", status: 400, exec: 4},
			{key: "k400", exec: 4, replay: true},
		}, entries: 2, hits: 2},
		// A leader whose handler wrote nothing concluded nothing: the
		// retry re-executes and gets the real answer.
		{name: "unwritten not pinned", cap: idempotencyCap, steps: []step{
			{key: "gone", status: 0, exec: 0},
			{key: "gone", status: 200, exec: 2},
			{key: "gone", exec: 2, replay: true},
		}, entries: 1, hits: 1},
		// FIFO cap pressure evicts the oldest key, which re-executes.
		{name: "eviction", cap: 2, steps: []step{
			{key: "a", status: 200, exec: 1},
			{key: "b", status: 200, exec: 2},
			{key: "c", status: 200, exec: 3}, // evicts a
			{key: "a", status: 200, exec: 4},
			{key: "c", exec: 3, replay: true},
		}, entries: 2, hits: 1},
		{name: "concurrent followers", cap: idempotencyCap, steps: []step{
			{key: "shared", status: 200, copies: 16, exec: 1},
		}, entries: 1, hits: -1},
		{name: "replay carries location and trace", cap: idempotencyCap, steps: []step{
			{key: "created", status: 201, exec: 1},
			{key: "created", exec: 1, replay: true},
		}, entries: 1, hits: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := &execHandler{}
			c := newIdempotency(tc.cap)
			h := c.Wrap(x.serve)
			statuses := map[int]int{} // execution → the status it answered
			for i, s := range tc.steps {
				x.set(s.status)
				before := x.count()
				copies := max(s.copies, 1)
				recs := make([]*httptest.ResponseRecorder, copies)
				var wg sync.WaitGroup
				for j := range recs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						recs[j] = do(context.Background(), h, s.key)
					}()
				}
				wg.Wait()
				executed := x.count() - before
				if s.replay && executed != 0 || !s.replay && executed != 1 {
					t.Fatalf("step %d (%q): %d executions, want replay=%v", i, s.key, executed, s.replay)
				}
				if !s.replay {
					statuses[before+1] = s.status
				}
				for _, rec := range recs {
					checkAnswer(t, i, rec, s, statuses[s.exec])
				}
			}
			m := c.Metrics()
			if int(m.Entries) != tc.entries || tc.hits >= 0 && int(m.Hits) != tc.hits {
				t.Errorf("metrics = %+v, want %d entries, %d hits", m, tc.entries, tc.hits)
			}
		})
	}
}

// checkAnswer verifies that a response is execution s.exec's answer:
// status, body and the replayed headers, with the replay marker only
// where expected.
func checkAnswer(t *testing.T, i int, rec *httptest.ResponseRecorder, s step, status int) {
	t.Helper()
	if s.exec == 0 {
		if rec.Body.Len() != 0 {
			t.Errorf("step %d: unwritten response has body %q", i, rec.Body.String())
		}
		return
	}
	n := strconv.Itoa(s.exec)
	if rec.Code != status {
		t.Errorf("step %d: status %d, want %d", i, rec.Code, status)
	}
	if got, want := rec.Body.String(), `{"execution":`+n+`}`; got != want {
		t.Errorf("step %d: body %s, want %s", i, got, want)
	}
	for k, want := range map[string]string{
		"Content-Type":           "application/json",
		"Location":               "/v1/runs/run-" + n,
		"Roload-Trace":           "run-" + n,
		"Roload-Gateway-Backend": "http://exec-" + n,
	} {
		if got := rec.Header().Get(k); got != want {
			t.Errorf("step %d: %s = %q, want %q", i, k, got, want)
		}
	}
	replayed := rec.Header().Get("Idempotency-Replayed") == "true"
	if s.copies == 0 && replayed != s.replay {
		t.Errorf("step %d: Idempotency-Replayed = %v, want %v", i, replayed, s.replay)
	}
	if replayed && rec.Header().Get("Roload-Gateway-Attempts") != "" {
		t.Errorf("step %d: replay restored a header outside the replay list", i)
	}
}

// blockingHandler executes once per call, parking until release closes
// and announcing each entry on started.
func blockingHandler(started chan<- string, release <-chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started <- r.Header.Get("Idempotency-Key")
		<-release
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(r.Header.Get("Idempotency-Key"))) //nolint:errcheck
	}
}

// TestIdempotencyEvictedLeaderDoesNotPublish: a leader whose entry cap
// pressure evicted while it ran must not publish into the map — the
// key's next request executes afresh.
func TestIdempotencyEvictedLeaderDoesNotPublish(t *testing.T) {
	started, release := make(chan string, 3), make(chan struct{}) // one send per execution
	c := newIdempotency(1)
	h := c.Wrap(blockingHandler(started, release))
	done := make(chan struct{})
	go func() {
		defer close(done)
		do(context.Background(), h, "slow")
	}()
	<-started
	go do(context.Background(), h, "other") // evicts "slow" while it runs
	<-started
	close(release)
	<-done
	if m := c.Metrics(); m.Entries != 1 {
		t.Fatalf("entries = %d, want 1", m.Entries)
	}
	rec := do(context.Background(), h, "slow")
	if rec.Header().Get("Idempotency-Replayed") != "" {
		t.Error("evicted leader's response was replayed")
	}
	if m := c.Metrics(); m.Misses != 3 {
		t.Errorf("misses = %d, want 3 (the evicted key re-executed)", m.Misses)
	}
}

// TestIdempotencyCanceledFollower: a follower whose own request context
// ends gets a bare 504 and stops waiting; the leader still stores its
// answer for the next retry.
func TestIdempotencyCanceledFollower(t *testing.T) {
	started, release := make(chan string, 1), make(chan struct{})
	c := newIdempotency(idempotencyCap)
	h := c.Wrap(blockingHandler(started, release))
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- do(context.Background(), h, "k") }()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := do(ctx, h, "k"); rec.Code != http.StatusGatewayTimeout || rec.Body.Len() != 0 {
		t.Errorf("canceled follower got %d %q, want a bare 504", rec.Code, rec.Body.String())
	}

	close(release)
	if rec := <-done; rec.Code != http.StatusOK || rec.Body.String() != "k" {
		t.Fatalf("leader got %d %q", rec.Code, rec.Body.String())
	}
	rec := do(context.Background(), h, "k")
	if rec.Header().Get("Idempotency-Replayed") != "true" || rec.Body.String() != "k" {
		t.Errorf("retry after the canceled follower: %q replayed=%q, want the stored answer",
			rec.Body.String(), rec.Header().Get("Idempotency-Replayed"))
	}
}
