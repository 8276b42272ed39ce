package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roload/internal/schema"
	"roload/internal/service"
)

const helloProg = `
func main() int {
	print_int(6 * 7);
	return 0;
}
`

// noSleep replaces the backoff wait so retry tests don't burn wall
// clock; cancellation is still honored.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func TestBackoffBoundsAndRetryAfter(t *testing.T) {
	c := New(Config{
		BaseURL:     "http://unused",
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		JitterSeed:  1,
	})
	// 37, 56 and 63 are past the shift's overflow: BaseBackoff << attempt
	// turns negative or zero there, so the delay must clamp first.
	for _, attempt := range []int{0, 1, 2, 3, 4, 5, 37, 56, 63} {
		d := c.backoff(attempt, 0)
		limit := c.cfg.MaxBackoff
		if c.cfg.BaseBackoff <= limit>>attempt {
			limit = c.cfg.BaseBackoff << attempt
		}
		if d <= 0 || d > limit {
			t.Fatalf("backoff(%d) = %v, want in (0, %v]", attempt, d, limit)
		}
	}
	// A server Retry-After floors the jittered delay.
	if d := c.backoff(0, 3); d < 3*time.Second {
		t.Fatalf("backoff with Retry-After 3s = %v, want >= 3s", d)
	}
}

// okEnvelope answers a minimal valid roload-serve/v1 run response.
func okEnvelope(w http.ResponseWriter, stdout string) {
	env, err := schema.Wrap(schema.ServeV1, schema.RunResponse{Stdout: stdout, Exited: true})
	if err != nil {
		panic(err)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(env) //nolint:errcheck
}

// TestHedgedRequestWinsAndCancelsStraggler pins the hedging contract:
// when the first leg stalls, the hedge leg launched after HedgeDelay
// answers, the stalled leg is cancelled, and no goroutine is leaked.
func TestHedgedRequestWinsAndCancelsStraggler(t *testing.T) {
	var requests atomic.Int64
	firstCanceled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			// Stall the first leg until the client abandons it. The body
			// must be drained first: the net/http server only watches for
			// client disconnects (and cancels r.Context()) once the
			// request body has been consumed.
			io.ReadAll(r.Body) //nolint:errcheck
			<-r.Context().Done()
			close(firstCanceled)
			return
		}
		okEnvelope(w, "hedged")
	}))
	defer ts.Close()

	before := runtime.NumGoroutine()
	c := New(Config{
		BaseURL:        ts.URL,
		HedgeDelay:     20 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
	})
	res, err := c.Run(context.Background(), schema.RunRequest{Schema: schema.ServeV1, Source: helloProg})
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if res.Response.Stdout != "hedged" {
		t.Fatalf("stdout = %q, want the hedge leg's answer", res.Response.Stdout)
	}
	if res.Attempts != 1 || res.Hedged != 1 {
		t.Fatalf("attempts = %d, hedged = %d, want 1 and 1", res.Attempts, res.Hedged)
	}
	select {
	case <-firstCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled first leg was never cancelled")
	}
	// The losing leg's goroutine must drain; poll because its exit
	// races with the handler return above. A small tolerance absorbs
	// the HTTP keep-alive goroutines the transport is allowed to keep.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- integration against the real chaos-enabled service ---

func newServiceClient(t *testing.T, svcCfg service.Config, cliCfg Config) (*httptest.Server, *Client) {
	t.Helper()
	srv, err := service.NewServer(svcCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	cliCfg.BaseURL = ts.URL
	return ts, New(cliCfg)
}

func postJSON(t *testing.T, url string, body any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
}

func serveMetrics(t *testing.T, baseURL string) schema.ServeMetrics {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env schema.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var m schema.ServeMetrics
	if err := env.Open(schema.ServeV1, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClientRetriesThroughChaosErrors drives the full loop: two armed
// chaos 500s burn two attempts, the third succeeds, and the server's
// idempotency cache shows each failed attempt re-executed (aborted
// entries are never replayed) while the final success is stored.
func TestClientRetriesThroughChaosErrors(t *testing.T) {
	ts, c := newServiceClient(t,
		service.Config{Chaos: true},
		Config{MaxAttempts: 4, Sleep: noSleep})
	postJSON(t, ts.URL+"/v1/chaos", schema.ChaosRequest{Schema: schema.ServeV1, ErrorNext: 2})

	res, err := c.Run(context.Background(), schema.RunRequest{Schema: schema.ServeV1, Source: helloProg})
	if err != nil {
		t.Fatalf("run through chaos: %v", err)
	}
	if res.Response.Stdout != "42\n" {
		t.Fatalf("stdout = %q, want \"42\\n\"", res.Response.Stdout)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two chaos errors, one success)", res.Attempts)
	}
	if res.Replayed {
		t.Fatal("final attempt was a replay; chaos errors must not be cached")
	}
	m := serveMetrics(t, ts.URL)
	if m.Idempotency.Misses != 3 || m.Idempotency.Hits != 0 {
		t.Fatalf("idempotency misses/hits = %d/%d, want 3/0 (every retry re-executed)",
			m.Idempotency.Misses, m.Idempotency.Hits)
	}
}

// TestClientExactlyOnceUnderLatencyAndHedging arms chaos latency above
// the hedge delay so every logical request hedges, then proves the
// server executed each logical request exactly once: idempotency
// misses == logical requests, every duplicate leg deduplicated.
func TestClientExactlyOnceUnderLatencyAndHedging(t *testing.T) {
	const logical = 4
	ts, c := newServiceClient(t,
		service.Config{Chaos: true, Workers: 2},
		Config{
			HedgeDelay:     20 * time.Millisecond,
			AttemptTimeout: 30 * time.Second,
			Sleep:          noSleep,
		})
	postJSON(t, ts.URL+"/v1/chaos", schema.ChaosRequest{Schema: schema.ServeV1, LatencyMS: 150})

	var wg sync.WaitGroup
	results := make([]*RunResult, logical)
	errs := make([]error, logical)
	for i := 0; i < logical; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Run(context.Background(),
				schema.RunRequest{Schema: schema.ServeV1, Source: helloProg})
		}(i)
	}
	wg.Wait()

	hedges := 0
	for i := 0; i < logical; i++ {
		if errs[i] != nil {
			t.Fatalf("logical run %d: %v", i, errs[i])
		}
		if results[i].Response.Stdout != "42\n" {
			t.Fatalf("logical run %d stdout = %q", i, results[i].Response.Stdout)
		}
		hedges += results[i].Hedged
	}
	if hedges == 0 {
		t.Fatal("latency above HedgeDelay launched no hedges; the test proved nothing")
	}
	m := serveMetrics(t, ts.URL)
	if m.Idempotency.Misses != logical {
		t.Fatalf("idempotency misses = %d, want %d (exactly one execution per logical request)",
			m.Idempotency.Misses, logical)
	}
}
