// Tests for the resilience surface added with the self-healing
// supervisor: the redundant/heal run options, idempotency keys,
// priority-aware load shedding, and drain behaviour of supervised
// runs.
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"roload/internal/schema"
)

// loopProg spans several supervisor sync points at the test stride.
const loopProg = `
func main() int {
	var i int = 0;
	var acc int = 0;
	while (i < 30000) {
		acc = acc + i;
		i = i + 1;
	}
	print_int(acc);
	return 0;
}
`

func openRun(t *testing.T, env schema.Envelope) schema.RunResponse {
	t.Helper()
	var resp schema.RunResponse
	if err := env.Open(schema.ServeV1, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// postKeyed is post with an Idempotency-Key header, also returning the
// response headers.
func postKeyed(t *testing.T, url, key string, body any) (int, schema.Envelope, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env schema.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("status %d, undecodable body %q: %v", resp.StatusCode, data, err)
	}
	return resp.StatusCode, env, resp.Header
}

// TestServeRedundantRun: a supervised run answers the same document as
// a plain run plus an agreed heal report.
func TestServeRedundantRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	status, env, _ := post(t, ts.URL+"/v1/run", schema.RunRequest{Source: loopProg})
	if status != http.StatusOK {
		t.Fatalf("plain run status = %d", status)
	}
	plain := openRun(t, env)

	status, env, _ = post(t, ts.URL+"/v1/run", schema.RunRequest{
		Source: loopProg, Redundant: 3, SyncEvery: 50_000,
	})
	if status != http.StatusOK {
		t.Fatalf("redundant run status = %d", status)
	}
	sup := openRun(t, env)
	if sup.Heal == nil {
		t.Fatal("redundant run carries no heal report")
	}
	if !sup.Heal.Agreed || sup.Heal.Replicas != 3 || sup.Heal.SyncChecked < 2 {
		raw, _ := json.Marshal(sup.Heal)
		t.Errorf("heal report = %s", raw)
	}
	sup.Heal = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(sup)
	if string(a) != string(b) {
		t.Errorf("supervised response differs from plain run:\n got %s\nwant %s", b, a)
	}
}

// TestServeRedundantHeal: seeded faults into one replica are masked —
// the response matches the fault-free run and the report records the
// divergence and heal.
func TestServeRedundantHeal(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Chaos: true})
	status, env, _ := post(t, ts.URL+"/v1/run", schema.RunRequest{Source: loopProg, Harden: "icall"})
	if status != http.StatusOK {
		t.Fatalf("fault-free run status = %d", status)
	}
	ref := openRun(t, env)

	status, env, _ = post(t, ts.URL+"/v1/run", schema.RunRequest{
		Source: loopProg, Harden: "icall",
		Redundant: 3, Heal: true, SyncEvery: 20_000,
		FaultCount: 2, FaultSeed: 7, FaultReplica: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("supervised faulted run status = %d", status)
	}
	sup := openRun(t, env)
	if sup.Heal == nil {
		t.Fatal("no heal report")
	}
	if sup.FaultTrace == nil || len(sup.FaultTrace.Events) == 0 {
		t.Fatal("seed 7 fired no faults; the scenario proves nothing")
	}
	if len(sup.Heal.Divergences) == 0 || len(sup.Heal.Heals) == 0 || !sup.Heal.Agreed {
		raw, _ := json.Marshal(sup.Heal)
		t.Errorf("heal report shows no divergence+heal: %s", raw)
	}
	if sup.Stdout != ref.Stdout || sup.ExitStatus != ref.ExitStatus {
		t.Errorf("supervised outcome (%q, %d) != fault-free (%q, %d)",
			sup.Stdout, sup.ExitStatus, ref.Stdout, ref.ExitStatus)
	}
	sup.Heal, sup.FaultTrace = nil, nil
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(sup)
	if string(a) != string(b) {
		t.Errorf("supervised faulted response differs from fault-free run:\n got %s\nwant %s", b, a)
	}
}

// TestServeRedundantValidation: malformed redundant options are 400s.
func TestServeRedundantValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  schema.RunRequest
		want string
	}{
		{"even", schema.RunRequest{Source: helloProg, Redundant: 4}, "odd"},
		{"one", schema.RunRequest{Source: helloProg, Redundant: 1}, "odd"},
		{"over cap", schema.RunRequest{Source: helloProg, Redundant: 9}, "exceeds the server cap"},
		{"fault replica", schema.RunRequest{Source: helloProg, Redundant: 3, FaultReplica: 3}, "out of range"},
		{"heal alone", schema.RunRequest{Source: helloProg, Heal: true}, "require redundant"},
		{"priority", schema.RunRequest{Source: helloProg, Priority: "vip"}, "unknown priority"},
	}
	for _, tc := range cases {
		status, env, _ := post(t, ts.URL+"/v1/run", tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, status)
			continue
		}
		if e := openError(t, env); e.Kind != "validation" || !bytes.Contains([]byte(e.Error), []byte(tc.want)) {
			t.Errorf("%s: error = %+v, want kind validation mentioning %q", tc.name, e, tc.want)
		}
	}
}

// TestServeIdempotencyReplay: a repeated key replays the stored
// response byte-for-byte without re-executing.
func TestServeIdempotencyReplay(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	status, env1, h1 := postKeyed(t, ts.URL+"/v1/run", "key-1", schema.RunRequest{Source: helloProg})
	if status != http.StatusOK {
		t.Fatalf("first run status = %d", status)
	}
	if h1.Get("Idempotency-Replayed") != "" {
		t.Error("first execution marked as replayed")
	}
	status, env2, h2 := postKeyed(t, ts.URL+"/v1/run", "key-1", schema.RunRequest{Source: helloProg})
	if status != http.StatusOK {
		t.Fatalf("replay status = %d", status)
	}
	if h2.Get("Idempotency-Replayed") != "true" {
		t.Error("replay not marked")
	}
	a, _ := json.Marshal(env1)
	b, _ := json.Marshal(env2)
	if string(a) != string(b) {
		t.Errorf("replayed body differs:\n a %s\n b %s", a, b)
	}
	m := srv.idem.Metrics()
	if m.Misses != 1 || m.Hits != 1 || m.Entries != 1 {
		t.Errorf("idempotency metrics = %+v, want 1 miss, 1 hit, 1 entry", m)
	}
}

// TestServeIdempotencyConcurrent: concurrent duplicates under one key
// execute the body exactly once; the followers replay.
func TestServeIdempotencyConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	const dup = 5
	var wg sync.WaitGroup
	bodies := make([]string, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, env, _ := postKeyed(t, ts.URL+"/v1/run", "key-c", schema.RunRequest{Source: helloProg})
			if status != http.StatusOK {
				t.Errorf("duplicate %d: status %d", i, status)
			}
			raw, _ := json.Marshal(env)
			bodies[i] = string(raw)
		}(i)
	}
	wg.Wait()
	for i := 1; i < dup; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("duplicate %d answered a different body", i)
		}
	}
	m := srv.idem.Metrics()
	if m.Misses != 1 {
		t.Errorf("misses = %d, want exactly one execution", m.Misses)
	}
	if m.Hits != dup-1 {
		t.Errorf("hits = %d, want %d replays", m.Hits, dup-1)
	}
}

// TestServeIdempotencyRetryAfterFailure: a chaos-injected 500 is not
// stored — the client's retry under the same key re-executes and the
// success is what gets pinned.
func TestServeIdempotencyRetryAfterFailure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Chaos: true})
	if status, _, _ := post(t, ts.URL+"/v1/chaos", schema.ChaosRequest{ErrorNext: 1}); status != http.StatusOK {
		t.Fatal("arming chaos failed")
	}
	status, env, _ := postKeyed(t, ts.URL+"/v1/run", "key-r", schema.RunRequest{Source: helloProg})
	if status != http.StatusInternalServerError {
		t.Fatalf("chaos run status = %d, want 500", status)
	}
	if e := openError(t, env); e.Kind != "chaos" {
		t.Fatalf("error kind = %q", e.Kind)
	}
	status, _, h := postKeyed(t, ts.URL+"/v1/run", "key-r", schema.RunRequest{Source: helloProg})
	if status != http.StatusOK {
		t.Fatalf("retry status = %d", status)
	}
	if h.Get("Idempotency-Replayed") != "" {
		t.Error("retry after failure replayed the failure instead of re-executing")
	}
	status, _, h = postKeyed(t, ts.URL+"/v1/run", "key-r", schema.RunRequest{Source: helloProg})
	if status != http.StatusOK || h.Get("Idempotency-Replayed") != "true" {
		t.Errorf("third attempt: status %d, replayed %q; want stored success replay", status, h.Get("Idempotency-Replayed"))
	}
	if m := srv.idem.Metrics(); m.Misses != 2 || m.Hits != 1 {
		t.Errorf("idempotency metrics = %+v, want 2 executions + 1 replay", srv.idem.Metrics())
	}
}

// TestServeIdempotencyBounded: every keyed request adds a cache entry
// holding its whole response, so the cache must stay bounded however
// many distinct keys arrive.
func TestServeIdempotencyBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 1100; i++ {
		if status, _, _ := postKeyed(t, ts.URL+"/v1/run", "bounded-"+strconv.Itoa(i), schema.RunRequest{Source: helloProg}); status != http.StatusOK {
			t.Fatalf("run %d status = %d", i, status)
		}
	}
	status, menv := get(t, ts.URL+"/metrics")
	var m schema.ServeMetrics
	if err := menv.Open(schema.ServeV1, &m); status != http.StatusOK || err != nil {
		t.Fatalf("metrics status = %d: %v", status, err)
	}
	if c := m.Idempotency; c.Entries > 1024 || c.Misses != 1100 {
		t.Errorf("idempotency = %+v, want at most 1024 entries after 1100 executions", c)
	}
}

// TestServeIdempotencyReplayHeaders: a keyed POST /v1/runs replay names
// the same resource and run as the creation it replays.
func TestServeIdempotencyReplayHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	status, _, h1 := postKeyed(t, ts.URL+"/v1/runs", "key-h", schema.RunRequest{Source: helloProg})
	if status != http.StatusCreated || h1.Get("Location") == "" || h1.Get("Roload-Trace") == "" {
		t.Fatalf("create status = %d, headers %v", status, h1)
	}
	status, _, h2 := postKeyed(t, ts.URL+"/v1/runs", "key-h", schema.RunRequest{Source: helloProg})
	if status != http.StatusCreated || h2.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay status = %d, replayed %q", status, h2.Get("Idempotency-Replayed"))
	}
	for _, k := range []string{"Location", "Roload-Trace"} {
		if h2.Get(k) != h1.Get(k) {
			t.Errorf("replay %s = %q, want %q", k, h2.Get(k), h1.Get(k))
		}
	}
}

// TestServeLowPriorityShed: once the queue passes the soft threshold,
// low-priority requests get 429 + Retry-After while default-priority
// requests still queue (and the full queue still answers 503 busy).
func TestServeLowPriorityShed(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: 2})

	// Occupy the only worker, then park one request in the queue; both
	// expire on their own request timeout.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL+"/v1/run", schema.RunRequest{Source: spinProg, TimeoutMS: 3_000})
		}()
		// Let the request reach its slot/queue position before the next.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if int(srv.inFlight.Load())+int(srv.queued.Load()) > i {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	defer wg.Wait()

	if got := int(srv.queued.Load()); got < 1 {
		t.Fatalf("queued = %d, want >= 1", got)
	}
	raw, _ := json.Marshal(schema.RunRequest{Source: helloProg, Priority: "low"})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("low-priority status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	var env schema.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	e := openError(t, env)
	if e.Kind != "overload" || e.RetryAfterSec <= 0 {
		t.Errorf("shed error = %+v, want kind overload with retry_after_sec", e)
	}
	if srv.shed.Load() == 0 {
		t.Error("shed counter did not move")
	}
}

// TestServeDrainCancelsRedundant: draining cancels an in-flight
// supervised run at the grace deadline; the client gets the standard
// 504 with a partial snapshot.
func TestServeDrainCancelsRedundant(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Grace: 100 * time.Millisecond})
	done := make(chan struct {
		status int
		env    schema.Envelope
	}, 1)
	go func() {
		status, env, _ := post(t, ts.URL+"/v1/run", schema.RunRequest{
			Source: spinProg, Redundant: 3, Heal: true, TimeoutMS: 30_000,
		})
		done <- struct {
			status int
			env    schema.Envelope
		}{status, env}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.inFlight.Load() == 0 {
		t.Fatal("redundant run never became in-flight")
	}
	srv.StartDrain()
	select {
	case r := <-done:
		if r.status != http.StatusGatewayTimeout {
			t.Fatalf("drained redundant run status = %d, want 504", r.status)
		}
		e := openError(t, r.env)
		if e.Kind != "timeout" {
			t.Errorf("error kind = %q, want timeout", e.Kind)
		}
		if e.Metrics == nil || e.Metrics.Instret == 0 {
			t.Error("504 carries no partial snapshot of the supervised run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained redundant run never answered")
	}
}
