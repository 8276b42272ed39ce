// Tests for the gateway's artifact replication: write-through copies
// on image and store puts, read-repair behind 404 fall-through GETs,
// and checkpoint resume surviving the loss of the backend that wrote
// the checkpoints.
package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"roload/internal/schema"
	"roload/internal/service"
)

const loopProgGW = "func main() int {\n\tvar i int = 0;\n\tvar sum int = 0;\n\twhile (i < 20000) { sum = sum + i; i = i + 1; }\n\tprint_int(sum);\n\treturn 0;\n}\n"

// storedFleet is a 3-backend store-enabled fleet behind one gateway
// with R=2 replication.
func storedFleet(t *testing.T) (*Gateway, *httptest.Server, map[string]*httptest.Server) {
	t.Helper()
	b1 := newBackend(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	b2 := newBackend(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	b3 := newBackend(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	backends := map[string]*httptest.Server{b1.URL: b1, b2.URL: b2, b3.URL: b3}
	g, ts, _ := newTestGateway(t, Config{
		Backends:           []string{b1.URL, b2.URL, b3.URL},
		Replicas:           2,
		AttemptsPerBackend: 1,
		EjectAfter:         1,
	})
	return g, ts, backends
}

// backendHolds reports whether one backend serves the artifact from
// its own store.
func backendHolds(t *testing.T, backend, kind, digest string) bool {
	t.Helper()
	resp, err := http.Get(backend + "/v1/store/" + kind + "/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode == http.StatusOK
}

// waitHolds polls until the backend holds the artifact or the deadline
// passes (replication copies are asynchronous).
func waitHolds(t *testing.T, backend, kind, digest string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !backendHolds(t, backend, kind, digest) {
		if time.Now().After(deadline) {
			t.Fatalf("backend %s never received %s/%s", backend, kind, digest)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayImageReplication: an image stored through the gateway is
// write-through-replicated to its replica set — exactly R backends
// hold it, synchronously with the put answering.
func TestGatewayImageReplication(t *testing.T) {
	g, ts, _ := storedFleet(t)

	body, err := json.Marshal(schema.ImageRequest{Source: runProg, Harden: "icall"})
	if err != nil {
		t.Fatal(err)
	}
	status, _, data := postRaw(t, ts.URL+"/v1/images", body, nil)
	if status != http.StatusCreated {
		t.Fatalf("image put status = %d: %s", status, data)
	}
	var env schema.Envelope
	var img schema.ImageResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &img); err != nil {
		t.Fatal(err)
	}

	holders := 0
	for _, b := range g.cfg.Backends {
		if backendHolds(t, b, "roload-image", img.Digest) {
			holders++
		}
	}
	if holders != 2 {
		t.Errorf("image held by %d backends, want exactly R=2", holders)
	}

	// The gateway's own store surface serves the digest too.
	gstatus, _ := http.Get(ts.URL + "/v1/store/roload-image/" + img.Digest)
	if gstatus == nil || gstatus.StatusCode != http.StatusOK {
		t.Fatalf("gateway store get failed")
	}
	gstatus.Body.Close()
}

// TestGatewayStorePutReplication: a direct artifact PUT through the
// gateway lands on the digest's ring owner and is asynchronously
// copied to the owner's successor; the replication counters account
// for the fan-out.
func TestGatewayStorePutReplication(t *testing.T) {
	g, ts, _ := storedFleet(t)

	body := []byte(`{"schema":"roload-batch/v1","batch_id":"repl-test","runs":[]}`)
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	targets := g.replicaTargets(digest)
	if len(targets) != 2 {
		t.Fatalf("replica set = %v, want 2 targets", targets)
	}

	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/store/roload-batch/"+digest, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gateway store put status = %d", resp.StatusCode)
	}

	for _, target := range targets {
		waitHolds(t, target, "roload-batch", digest)
	}

	var metrics schema.GatewayMetrics
	if status := getJSON(t, ts.URL+"/metrics", &metrics); status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	r := metrics.Replication
	if r.Replicas != 2 || r.Enqueued == 0 || r.Replicated == 0 {
		t.Errorf("replication metrics = %+v, want replicas 2 and traffic", r)
	}
}

// TestGatewayReadRepair: an artifact that lives only on a non-owner
// backend is still served through the gateway (404 fall-through), and
// the read repairs the owner — the replica set converges back to R
// copies without any write traffic. The GET /v1/images/{digest} alias
// takes the same path for images.
func TestGatewayReadRepair(t *testing.T) {
	batch := []byte(`{"schema":"roload-batch/v1","batch_id":"repair-test","runs":[]}`)
	sum := sha256.Sum256(batch)
	image, imageDigest := mintImage(t)
	for _, tc := range []struct {
		name, kind, path, digest string
		body                     []byte
	}{
		{"store", "roload-batch", "/v1/store/roload-batch/", hex.EncodeToString(sum[:]), batch},
		{"image alias", "roload-image", "/v1/images/", imageDigest, image},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ts, _ := storedFleet(t)
			targets := g.replicaTargets(tc.digest)
			owner, holder := targets[0], targets[1]

			// Seed only the successor, behind the gateway's back.
			req, err := http.NewRequest(http.MethodPut,
				holder+"/v1/store/"+tc.kind+"/"+tc.digest, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("seed put status = %d", resp.StatusCode)
			}

			// The gateway GET falls through the owner's 404 to the holder
			// and serves the exact bytes.
			gresp, err := http.Get(ts.URL + tc.path + tc.digest)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(gresp.Body)
			gresp.Body.Close()
			if gresp.StatusCode != http.StatusOK {
				t.Fatalf("gateway GET %s status = %d", tc.path, gresp.StatusCode)
			}
			if !bytes.Equal(got, tc.body) {
				t.Errorf("gateway served %q, want the seeded bytes", got)
			}

			// The miss triggered read-repair: the owner converges to a copy.
			waitHolds(t, owner, tc.kind, tc.digest)

			var metrics schema.GatewayMetrics
			if status := getJSON(t, ts.URL+"/metrics", &metrics); status != http.StatusOK {
				t.Fatalf("metrics status = %d", status)
			}
			if metrics.Replication.ReadRepairs == 0 {
				t.Errorf("read_repairs = 0 after a repaired read")
			}
		})
	}
}

// mintImage compiles runProg into a stored image on a backend outside
// any fleet and returns the image's bytes and digest.
func mintImage(t *testing.T) ([]byte, string) {
	t.Helper()
	b := newBackend(t, service.Config{Workers: 1, StoreDir: t.TempDir()})
	body, err := json.Marshal(schema.ImageRequest{Source: runProg, Harden: "icall"})
	if err != nil {
		t.Fatal(err)
	}
	status, _, data := postRaw(t, b.URL+"/v1/images", body, nil)
	var env schema.Envelope
	var img schema.ImageResponse
	if status != http.StatusCreated || json.Unmarshal(data, &env) != nil || env.Open(schema.ServeV1, &img) != nil {
		t.Fatalf("image put status = %d: %s", status, data)
	}
	resp, err := http.Get(b.URL + "/v1/store/roload-image/" + img.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("image get status = %d: %v", resp.StatusCode, err)
	}
	return raw, img.Digest
}

// TestGatewayCheckpointSurvivesBackendLoss is the in-process half of
// the kill-the-owner story: a checkpointed run through the gateway
// replicates its checkpoints to the shard's successor as it writes
// them, so when the serving backend dies the resume — re-driven
// through the same gateway — completes on the survivor with the
// uninterrupted run's observables.
func TestGatewayCheckpointSurvivesBackendLoss(t *testing.T) {
	g, ts, backends := storedFleet(t)
	before := runtime.NumGoroutine()

	ref, err := json.Marshal(schema.RunRequest{Source: loopProgGW, Harden: "icall"})
	if err != nil {
		t.Fatal(err)
	}
	rstatus, _, rdata := postRaw(t, ts.URL+"/v1/run", ref, nil)
	if rstatus != http.StatusOK {
		t.Fatalf("reference run status = %d: %s", rstatus, rdata)
	}
	var renv schema.Envelope
	var refRun schema.RunResponse
	if err := json.Unmarshal(rdata, &renv); err != nil {
		t.Fatal(err)
	}
	if err := renv.Open(schema.ServeV1, &refRun); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(schema.RunRequest{
		Source: loopProgGW, Harden: "icall",
		MaxSteps: 100_000, CheckpointEvery: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, data := postRaw(t, ts.URL+"/v1/run", body, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("interrupted run status = %d: %s", status, data)
	}
	var env schema.Envelope
	var e schema.ErrorResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := env.Open(schema.ServeV1, &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Checkpoints) == 0 {
		t.Fatal("step-limit partial carries no checkpoints")
	}
	last := e.Checkpoints[len(e.Checkpoints)-1]

	// SIGKILL stand-in: the backend that wrote the checkpoints goes
	// away without any drain.
	served := hdr.Get("Roload-Gateway-Backend")
	backends[served].Close()

	resume, err := json.Marshal(schema.RunRequest{
		Source: loopProgGW, Harden: "icall", Resume: "store://" + last,
	})
	if err != nil {
		t.Fatal(err)
	}
	cstatus, chdr, cdata := postRaw(t, ts.URL+"/v1/run", resume, nil)
	if cstatus != http.StatusOK {
		t.Fatalf("resume after backend loss status = %d: %s", cstatus, cdata)
	}
	if chdr.Get("Roload-Gateway-Backend") == served {
		t.Errorf("resume reportedly served by the dead backend")
	}
	var cenv schema.Envelope
	var res schema.RunResponse
	if err := json.Unmarshal(cdata, &cenv); err != nil {
		t.Fatal(err)
	}
	if err := cenv.Open(schema.ServeV1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stdout != refRun.Stdout || res.ExitStatus != refRun.ExitStatus {
		t.Errorf("resumed run diverges: stdout %q vs %q", res.Stdout, refRun.Stdout)
	}
	if res.Metrics == nil || refRun.Metrics == nil || res.Metrics.Instret != refRun.Metrics.Instret {
		t.Errorf("resumed metrics diverge from the uninterrupted run")
	}

	ts.Close()
	g.Close()
	checkGoroutines(t, before)
}
