package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"roload/internal/retain"
	"roload/internal/schema"
	"roload/internal/service"
)

const runProg = "func main() int {\n\tprint_int(6 * 7);\n\treturn 0;\n}\n"

// quietLogger keeps gateway request logs out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newBackend starts one real roload-serve service.
func newBackend(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// newTestGateway builds a gateway with probing effectively off (tests
// drive the state machine directly) and its own transport, torn down
// with the test.
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server, *http.Transport) {
	t.Helper()
	if cfg.ProbeIntervalMS == 0 {
		cfg.ProbeIntervalMS = 3_600_000 // the ticker never fires in a test
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	tr := &http.Transport{}
	if cfg.Transport == nil {
		cfg.Transport = tr
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
		tr.CloseIdleConnections()
	})
	return g, ts, tr
}

// postRaw posts raw JSON and returns status, headers and body bytes.
func postRaw(t *testing.T, url string, body []byte, header map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env schema.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET %s: undecodable: %v", url, err)
	}
	if out != nil {
		if err := env.Open(schema.ServeV1, out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// mustRunBody is the canonical run request body for runProg.
func mustRunBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(schema.RunRequest{Source: runProg, Harden: "icall"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkGoroutines fails the test if goroutines leaked past the
// baseline after idle connections are closed and the runtime settles.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	var after int
	for i := 0; i < 100; i++ {
		after = runtime.NumGoroutine()
		if after <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, after)
}

// TestGatewayByteIdentity: the same request served direct and through
// the gateway yields byte-identical response bodies — the fleet-level
// bit-identical-observables invariant.
func TestGatewayByteIdentity(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2})
	b2 := newBackend(t, service.Config{Workers: 2})
	g, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL, b2.URL}})

	body := mustRunBody(t)
	status, hdr, viaGateway := postRaw(t, ts.URL+"/v1/run", body, nil)
	if status != http.StatusOK {
		t.Fatalf("gateway run status = %d: %s", status, viaGateway)
	}
	served := hdr.Get("Roload-Gateway-Backend")
	if served != b1.URL && served != b2.URL {
		t.Fatalf("Roload-Gateway-Backend = %q", served)
	}
	if hdr.Get("Roload-Gateway-Attempts") != "1" {
		t.Errorf("first-try attempts header = %q", hdr.Get("Roload-Gateway-Attempts"))
	}

	status, _, direct := postRaw(t, served+"/v1/run", body, nil)
	if status != http.StatusOK {
		t.Fatalf("direct run status = %d", status)
	}
	if !bytes.Equal(viaGateway, direct) {
		t.Errorf("gateway body diverges from direct body:\n%s\nvs\n%s", viaGateway, direct)
	}

	// Same-key routing is sticky: a repeat request lands on the same
	// backend (warm image cache), attempts still 1.
	_, hdr2, _ := postRaw(t, ts.URL+"/v1/run", body, nil)
	if hdr2.Get("Roload-Gateway-Backend") != served {
		t.Errorf("repeat routed to %q, first to %q", hdr2.Get("Roload-Gateway-Backend"), served)
	}

	// A batch proxies through the same path (no byte comparison: batch
	// reports embed minted ids).
	batchBody, _ := json.Marshal(schema.BatchRequest{
		Source: runProg, Harden: "icall",
		Runs: []schema.BatchRunSpec{{}, {}},
	})
	status, _, out := postRaw(t, ts.URL+"/v1/batch", batchBody, nil)
	if status != http.StatusOK {
		t.Fatalf("gateway batch status = %d: %s", status, out)
	}

	if g.failovers.Load() != 0 {
		t.Errorf("failovers = %d with all backends up", g.failovers.Load())
	}
}

// TestGatewayFailover: the backend owning a key is killed; each of the
// next EjectAfter requests fails over to the ring's next backend and
// answers 200 with the same bytes a healthy fleet would serve, and the
// dead backend is ejected by the live traffic that found it. The
// default row retries the dead backend AttemptsPerBackend times per
// request, so every one of those failures has to reach the prober.
func TestGatewayFailover(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"eject-after-1", Config{AttemptsPerBackend: 1, EjectAfter: 1}},
		{"defaults", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b1 := newBackend(t, service.Config{Workers: 2})
			b2 := newBackend(t, service.Config{Workers: 2})
			backends := map[string]*httptest.Server{b1.URL: b1, b2.URL: b2}
			cfg := tc.cfg
			cfg.Backends = []string{b1.URL, b2.URL}
			g, ts, tr := newTestGateway(t, cfg)
			// The leak baseline includes the fixture servers and probe
			// loop; everything the traffic below spawns must be gone by
			// the end.
			before := runtime.NumGoroutine()

			body := mustRunBody(t)
			var req schema.RunRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			order := g.ring.order(shardKey(req.ImageDigest, req.Source, req.Asm, req.Harden, req.Optimize))
			dead, survivor := order[0], order[1]

			// Baseline: the healthy owner serves.
			status, _, want := postRaw(t, ts.URL+"/v1/run", body, nil)
			if status != http.StatusOK {
				t.Fatalf("baseline status = %d", status)
			}

			backends[dead].Close()

			for i := 0; i < g.cfg.EjectAfter; i++ {
				status, hdr, got := postRaw(t, ts.URL+"/v1/run", body, nil)
				if status != http.StatusOK {
					t.Fatalf("failover #%d status = %d: %s", i, status, got)
				}
				if hdr.Get("Roload-Gateway-Backend") != survivor {
					t.Errorf("failover #%d served by %q, want survivor %q", i, hdr.Get("Roload-Gateway-Backend"), survivor)
				}
				if hdr.Get("Roload-Gateway-Attempts") != "2" {
					t.Errorf("failover #%d attempts header = %q, want 2 (dead try + survivor)", i, hdr.Get("Roload-Gateway-Attempts"))
				}
				if !bytes.Equal(got, want) {
					t.Errorf("failover #%d body diverges from baseline:\n%s\nvs\n%s", i, got, want)
				}
			}
			if g.failovers.Load() == 0 {
				t.Error("failover counter did not move")
			}
			// EjectAfter failed exchanges ejected the dead backend, so the
			// next request goes straight to the survivor.
			if s := g.prober.stateOf(dead); s != stateEjected {
				t.Errorf("dead backend state = %s, want ejected", s)
			}
			_, hdr, _ := postRaw(t, ts.URL+"/v1/run", body, nil)
			if hdr.Get("Roload-Gateway-Attempts") != "1" {
				t.Errorf("post-ejection attempts = %q, want 1", hdr.Get("Roload-Gateway-Attempts"))
			}

			var metrics schema.GatewayMetrics
			if status := getJSON(t, ts.URL+"/metrics", &metrics); status != http.StatusOK {
				t.Fatalf("metrics status = %d", status)
			}
			if metrics.Failovers == 0 || metrics.Backends[dead].State != stateEjected {
				t.Errorf("metrics = failovers %d, dead state %q", metrics.Failovers, metrics.Backends[dead].State)
			}

			ts.Close()
			g.Close()
			tr.CloseIdleConnections()
			checkGoroutines(t, before)
		})
	}
}

// TestGatewayIdempotencyPin: a keyed request whose serving backend
// dies is replayed from the gateway pin on retry — no re-execution,
// byte-identical answer, Idempotency-Replayed set. This is the
// cross-backend replay the per-backend caches cannot provide.
func TestGatewayIdempotencyPin(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2})
	b2 := newBackend(t, service.Config{Workers: 2})
	backends := map[string]*httptest.Server{b1.URL: b1, b2.URL: b2}
	_, ts, _ := newTestGateway(t, Config{
		Backends:           []string{b1.URL, b2.URL},
		AttemptsPerBackend: 1,
		EjectAfter:         1,
	})

	body := mustRunBody(t)
	key := map[string]string{"Idempotency-Key": "pin-cross-backend"}
	status, hdr, first := postRaw(t, ts.URL+"/v1/run", body, key)
	if status != http.StatusOK {
		t.Fatalf("first status = %d", status)
	}
	served := hdr.Get("Roload-Gateway-Backend")

	// The backend that executed it is gone; the client retries the key.
	backends[served].Close()

	status, hdr, second := postRaw(t, ts.URL+"/v1/run", body, key)
	if status != http.StatusOK {
		t.Fatalf("retry status = %d: %s", status, second)
	}
	if hdr.Get("Idempotency-Replayed") != "true" {
		t.Errorf("retry not marked replayed; headers %v", hdr)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("replayed body diverges:\n%s\nvs\n%s", first, second)
	}
	// The replay still names the backend that originally executed —
	// provenance, not routing.
	if hdr.Get("Roload-Gateway-Backend") != served {
		t.Errorf("replay backend = %q, want original %q", hdr.Get("Roload-Gateway-Backend"), served)
	}
}

// TestGatewayRunsLocation: POST /v1/runs through the gateway forwards
// the backend's Location, and a GET of it through the gateway serves
// the creation's body byte-identically.
func TestGatewayRunsLocation(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2})
	b2 := newBackend(t, service.Config{Workers: 2})
	_, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL, b2.URL}})

	status, hdr, created := postRaw(t, ts.URL+"/v1/runs", mustRunBody(t), nil)
	if status != http.StatusCreated {
		t.Fatalf("create status = %d: %s", status, created)
	}
	runID, loc := hdr.Get("Roload-Trace"), hdr.Get("Location")
	if runID == "" || loc != "/v1/runs/"+runID {
		t.Fatalf("Location = %q, want /v1/runs/{id} for run %q", loc, runID)
	}
	resp, err := http.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", loc, resp.StatusCode, got)
	}
	if !bytes.Equal(got, created) {
		t.Errorf("GET %s diverges from the creation body:\n%s\nvs\n%s", loc, got, created)
	}
}

// TestGatewayImageRouting: an image stored through the gateway is
// retrievable through the gateway even when the ring routes the read
// to a backend that never saw it (404 fall-through), and run-by-digest
// follows the image the same way.
func TestGatewayImageRouting(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	b2 := newBackend(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	g, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL, b2.URL}})

	imgBody, _ := json.Marshal(schema.ImageRequest{Source: runProg, Harden: "icall"})
	status, _, out := postRaw(t, ts.URL+"/v1/images", imgBody, nil)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("image put status = %d: %s", status, out)
	}
	var env schema.Envelope
	var img schema.ImageResponse
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &img); err != nil {
		t.Fatal(err)
	}
	if img.Digest == "" {
		t.Fatal("image put returned no digest")
	}

	// Drop the digest affinity so the GET must find the image by ring
	// order and 404 fall-through alone.
	g.digests = retain.NewFIFO[string, string](affinityCap)
	resp, err := http.Get(ts.URL + "/v1/images/" + img.Digest)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("image get status = %d", resp.StatusCode)
	}

	runBody, _ := json.Marshal(schema.RunRequest{ImageDigest: img.Digest})
	status, _, out = postRaw(t, ts.URL+"/v1/run", runBody, nil)
	if status != http.StatusOK {
		t.Fatalf("run-by-digest status = %d: %s", status, out)
	}

	// A digest nobody holds is a genuine 404 from the fleet.
	resp, err = http.Get(ts.URL + "/v1/images/sha256:0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing digest status = %d, want 404", resp.StatusCode)
	}
}

// TestGatewayMirrorDiff: a canary that answers differently from the
// fleet is caught by the shadow diff and reported in /metrics; the
// client's response is untouched.
func TestGatewayMirrorDiff(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2})
	canary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"skewed": true}`)) //nolint:errcheck
	}))
	t.Cleanup(canary.Close)
	g, ts, _ := newTestGateway(t, Config{
		Backends:       []string{b1.URL},
		Canary:         canary.URL,
		MirrorFraction: 1,
	})

	body := mustRunBody(t)
	status, _, served := postRaw(t, ts.URL+"/v1/run", body, nil)
	if status != http.StatusOK {
		t.Fatalf("run status = %d", status)
	}
	if bytes.Contains(served, []byte("skewed")) {
		t.Fatal("canary bytes leaked into the served response")
	}
	g.mirror.drain()

	snap := g.mirror.snapshot()
	if snap.Mirrored != 1 || snap.Diffs != 1 {
		t.Errorf("mirror snapshot = %+v, want 1 mirrored / 1 diff", snap)
	}
	if !strings.Contains(snap.LastDiff, "run") {
		t.Errorf("last diff %q names no endpoint", snap.LastDiff)
	}
	var metrics schema.GatewayMetrics
	getJSON(t, ts.URL+"/metrics", &metrics)
	if metrics.Mirror.Diffs != 1 {
		t.Errorf("metrics mirror = %+v", metrics.Mirror)
	}
}

// TestGatewaySSEFailover: a relayed event stream whose backend dies
// mid-run resumes from the run's new owner; the client sees every
// sequence number exactly once and the stream still ends with the
// terminal result event.
func TestGatewaySSEFailover(t *testing.T) {
	const runID = "run-sse-failover"

	sseBackend := func(events []schema.RunEvent) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/events") {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "text/event-stream")
			fl := w.(http.Flusher)
			for _, ev := range events {
				if err := writeSSEFrame(w, ev); err != nil {
					return
				}
				fl.Flush()
			}
			// Returning without a result event simulates the backend dying
			// mid-stream: the gateway must reconnect, not conclude.
		}))
		t.Cleanup(ts.Close)
		return ts
	}

	resultEnv := `{"schema":"roload-serve/v1"}`
	a := sseBackend([]schema.RunEvent{
		{Seq: 1, Kind: "compile"},
		{Seq: 2, Kind: "step", Instret: 100},
	})
	b := sseBackend([]schema.RunEvent{
		{Seq: 1, Kind: "compile"},
		{Seq: 2, Kind: "step", Instret: 100},
		{Seq: 3, Kind: "step", Instret: 200},
		{Seq: 4, Kind: schema.EventResult, Result: resultEnv},
	})

	g, ts, tr := newTestGateway(t, Config{Backends: []string{a.URL, b.URL}})
	g.runs.Put(runID, a.URL)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+runID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}

	var got []schema.RunEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev schema.RunEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		got = append(got, ev)
		if len(got) == 2 {
			// The first owner is dead; the failover loop re-homed the run.
			g.runs.Put(runID, b.URL)
		}
		if ev.Kind == schema.EventResult {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}

	if len(got) != 4 {
		t.Fatalf("received %d events, want 4: %+v", len(got), got)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d (duplicate or gap): %+v", i, ev.Seq, got)
		}
	}
	last := got[len(got)-1]
	if last.Kind != schema.EventResult || last.Result != resultEnv {
		t.Errorf("terminal event = %+v", last)
	}

	resp.Body.Close()
	ts.Close()
	g.Close()
	tr.CloseIdleConnections()
	checkGoroutines(t, before)
}

// TestGatewaySSECancelNotFailure: a subscriber that hangs up while the
// relay still waits for the backend's stream headers fails the relay's
// request with its own canceled context. That is no evidence against
// the backend: even with EjectAfter 1 it stays healthy.
func TestGatewaySSECancelNotFailure(t *testing.T) {
	const runID = "run-sse-cancel"
	attached := make(chan struct{})
	var once sync.Once
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(attached) })
		<-r.Context().Done() // hold the stream headers until the relay leaves
	}))
	t.Cleanup(backend.Close)
	g, ts, _ := newTestGateway(t, Config{Backends: []string{backend.URL}, EjectAfter: 1})
	g.runs.Put(runID, backend.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+runID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-attached
	cancel()
	resp.Body.Close()

	// Wait for the gateway's handler to return before reading the
	// backend's health.
	for deadline := time.Now().Add(5 * time.Second); ; {
		var metrics schema.GatewayMetrics
		getJSON(t, ts.URL+"/metrics", &metrics)
		if metrics.Endpoints["events"].Requests > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("events handler never returned after the subscriber left")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.prober.stateOf(backend.URL); got != stateHealthy {
		t.Errorf("subscriber cancel ejected a healthy backend: state = %s", got)
	}
	h := g.prober.backends[backend.URL]
	h.mu.Lock()
	failures := h.failures
	h.mu.Unlock()
	if failures != 0 {
		t.Errorf("subscriber cancel recorded as backend failure: failures = %d", failures)
	}
}

// TestGatewayClientCancelNotPinnedNotFailure: a client that hangs up
// while the gateway is proxying must not (a) pin the never-written
// default empty 200 under its Idempotency-Key — the retry must
// re-execute and get the real answer — or (b) count as backend
// transport failure evidence and eject the healthy backend its own
// cancellation interrupted.
func TestGatewayClientCancelNotPinnedNotFailure(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	started := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			// Drain the body so the server's background read can detect
			// the connection close and cancel r.Context().
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			close(started)
			<-r.Context().Done() // hold the first exchange until its client vanishes
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	t.Cleanup(backend.Close)
	g, ts, _ := newTestGateway(t, Config{
		Backends:           []string{backend.URL},
		AttemptsPerBackend: 1,
		EjectAfter:         1,
	})

	body := mustRunBody(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "canceled-mid-proxy")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req) //nolint:bodyclose // errors out on cancel
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request unexpectedly concluded")
	}

	// The abandoned request is counted as a 504 timeout, not a 200. The
	// handler may still be unwinding, so wait for it to be counted.
	var run schema.EndpointMetrics
	for deadline := time.Now().Add(5 * time.Second); ; {
		var metrics schema.GatewayMetrics
		getJSON(t, ts.URL+"/metrics", &metrics)
		run = metrics.Endpoints["run"]
		if run.Requests > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if run.Requests != 1 || run.OK != 0 || run.Timeouts != 1 {
		t.Errorf("endpoints.run = %+v, want 1 request, ok 0, timeouts 1", run)
	}

	// The retry re-executes (no empty-200 replay) and succeeds.
	status, hdr, got := postRaw(t, ts.URL+"/v1/run", body,
		map[string]string{"Idempotency-Key": "canceled-mid-proxy"})
	if status != http.StatusOK {
		t.Fatalf("retry status = %d: %s", status, got)
	}
	if string(got) != `{"ok":true}` {
		t.Errorf("retry body = %q, want the backend's real answer", got)
	}
	if hdr.Get("Idempotency-Replayed") == "true" {
		t.Error("retry replayed the canceled attempt instead of re-executing")
	}
	mu.Lock()
	n := calls
	mu.Unlock()
	if n != 2 {
		t.Errorf("backend executions = %d, want 2 (canceled + retry)", n)
	}

	// The cancellation was not booked as backend evidence: with
	// EjectAfter 1, any misclassification would have ejected it.
	if got := g.prober.stateOf(backend.URL); got != stateHealthy {
		t.Errorf("client cancel ejected a healthy backend: state = %s", got)
	}
	h := g.prober.backends[backend.URL]
	h.mu.Lock()
	failures, streak := h.failures, h.consecFails
	h.mu.Unlock()
	if failures != 0 || streak != 0 {
		t.Errorf("client cancel recorded as backend failure: failures=%d consecFails=%d", failures, streak)
	}
}

// TestGatewayInconclusiveNotFound: when some backends answer 404 but
// another is unreachable, the 404 is not conclusive — the resource may
// live on the backend that is down — so the gateway answers a
// retryable 503 instead of a (pinnable) verbatim 404.
func TestGatewayInconclusiveNotFound(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 1, StoreDir: t.TempDir()})
	deadSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead := deadSrv.URL
	deadSrv.Close()
	_, ts, _ := newTestGateway(t, Config{
		Backends:           []string{b1.URL, dead},
		AttemptsPerBackend: 1,
	})

	resp, err := http.Get(ts.URL + "/v1/images/sha256:0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("inconclusive 404 served as %d, want 503", resp.StatusCode)
	}
	var env schema.Envelope
	var apiErr schema.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Kind != "no_backend" {
		t.Errorf("error kind = %q, want no_backend", apiErr.Kind)
	}
}

// TestGatewayNoBackend: with every backend ejected the gateway answers
// a structured 503 no_backend and counts it.
func TestGatewayNoBackend(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 1})
	g, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL}})

	h := g.prober.backends[b1.URL]
	h.mu.Lock()
	h.state = stateEjected
	h.ejectedAt = time.Now()
	h.mu.Unlock()

	status, hdr, out := postRaw(t, ts.URL+"/v1/run", mustRunBody(t), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d: %s", status, out)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}
	var env schema.Envelope
	var apiErr schema.ErrorResponse
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Kind != "no_backend" {
		t.Errorf("error kind = %q", apiErr.Kind)
	}
	if g.noBackend.Load() == 0 {
		t.Error("no_backend counter did not move")
	}

	var health schema.GatewayHealth
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d with zero admitted", status)
	}
	if health.Status != "degraded" || health.Admitted != 0 {
		t.Errorf("health = %+v", health)
	}
}

// TestGatewayDrain: StartDrain flips /healthz to 503 draining and sheds
// new proxied work with a structured 503.
func TestGatewayDrain(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 1})
	g, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL}})

	var health schema.GatewayHealth
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health.Status != "ok" {
		t.Fatalf("pre-drain healthz = %d %+v", status, health)
	}

	g.StartDrain()
	if !g.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("draining healthz = %d %+v", status, health)
	}
	status, _, out := postRaw(t, ts.URL+"/v1/run", mustRunBody(t), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining run status = %d: %s", status, out)
	}
	var env schema.Envelope
	var apiErr schema.ErrorResponse
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Kind != "draining" {
		t.Errorf("error kind = %q", apiErr.Kind)
	}
	var metrics schema.GatewayMetrics
	getJSON(t, ts.URL+"/metrics", &metrics)
	if !metrics.Draining {
		t.Error("metrics does not report draining")
	}
}

// TestGatewayValidation: malformed requests are rejected at the
// gateway without touching a backend.
func TestGatewayValidation(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 1})
	_, ts, _ := newTestGateway(t, Config{Backends: []string{b1.URL}, MaxBodyBytes: 512})

	status, _, _ := postRaw(t, ts.URL+"/v1/run", []byte("{not json"), nil)
	if status != http.StatusBadRequest {
		t.Errorf("bad json status = %d", status)
	}
	big, _ := json.Marshal(schema.RunRequest{Source: strings.Repeat("x", 1024)})
	status, _, _ = postRaw(t, ts.URL+"/v1/run", big, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/bad%20id%21/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid run id events status = %d", resp.StatusCode)
	}
}
