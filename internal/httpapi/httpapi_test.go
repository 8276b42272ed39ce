package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"roload/internal/schema"
)

// TestWrap drives one request per row through the middleware and
// checks what the client received, how the endpoint was counted, and
// the request log line.
func TestWrap(t *testing.T) {
	cases := []struct {
		name    string
		header  map[string]string
		handler http.HandlerFunc
		status  int
		counts  schema.EndpointMetrics
		// body, when non-"", must be the whole response body.
		body     string
		errKind  string // the error envelope's kind, when one is expected
		panicked bool
		flushed  bool
		logRunID string
		errRunID string
	}{
		{
			name: "2xx",
			handler: func(w http.ResponseWriter, r *http.Request) {
				WriteEnvelope(w, http.StatusCreated, schema.ImageResponse{Digest: "d"})
			},
			status: http.StatusCreated,
			counts: schema.EndpointMetrics{Requests: 1, OK: 1},
		},
		{
			name: "implicit-200",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte("hi")) //nolint:errcheck
			},
			status: http.StatusOK,
			body:   "hi",
			counts: schema.EndpointMetrics{Requests: 1, OK: 1},
		},
		{
			name: "4xx",
			handler: func(w http.ResponseWriter, r *http.Request) {
				WriteError(w, http.StatusNotFound, schema.ErrorResponse{Error: "no", Kind: "not_found"})
			},
			status:  http.StatusNotFound,
			errKind: "not_found",
			counts:  schema.EndpointMetrics{Requests: 1, Errors4x: 1},
		},
		{
			name: "5xx",
			handler: func(w http.ResponseWriter, r *http.Request) {
				WriteError(w, http.StatusServiceUnavailable, schema.ErrorResponse{Error: "busy", Kind: "busy"})
			},
			status:  http.StatusServiceUnavailable,
			errKind: "busy",
			counts:  schema.EndpointMetrics{Requests: 1, Errors5x: 1},
		},
		{
			name: "504",
			handler: func(w http.ResponseWriter, r *http.Request) {
				WriteError(w, http.StatusGatewayTimeout, schema.ErrorResponse{Error: "late", Kind: "timeout"})
			},
			status:  http.StatusGatewayTimeout,
			errKind: "timeout",
			counts:  schema.EndpointMetrics{Requests: 1, Errors5x: 1, Timeouts: 1},
		},
		{
			name: "panic-before-response",
			handler: func(w http.ResponseWriter, r *http.Request) {
				SetRunID(r.Context(), "run-p")
				panic("boom")
			},
			status:   http.StatusInternalServerError,
			errKind:  "panic",
			errRunID: "run-p",
			logRunID: "run-p",
			panicked: true,
			counts:   schema.EndpointMetrics{Requests: 1, Errors5x: 1},
		},
		{
			name: "panic-after-writeheader",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte("partial")) //nolint:errcheck
				panic("boom")
			},
			status:   http.StatusAccepted,
			body:     "partial",
			panicked: true,
			counts:   schema.EndpointMetrics{Requests: 1, OK: 1},
		},
		{
			name: "flush",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.(http.Flusher).Flush()
			},
			status:  http.StatusOK,
			flushed: true,
			counts:  schema.EndpointMetrics{Requests: 1, OK: 1},
		},
		{
			name: "set-run-id",
			handler: func(w http.ResponseWriter, r *http.Request) {
				SetRunID(r.Context(), "run-s")
				w.WriteHeader(http.StatusNoContent)
			},
			status:   http.StatusNoContent,
			logRunID: "run-s",
			counts:   schema.EndpointMetrics{Requests: 1, OK: 1},
		},
		{
			name:   "adopt-run-id",
			header: map[string]string{"Roload-Trace": "client-run-7"},
			handler: func(w http.ResponseWriter, r *http.Request) {
				AdoptRunID(r)
			},
			status:   http.StatusOK,
			logRunID: "client-run-7",
			counts:   schema.EndpointMetrics{Requests: 1, OK: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			e := NewEndpoints(slog.New(slog.NewJSONHandler(&logs, nil)))
			req := httptest.NewRequest(http.MethodPost, "/v1/x", nil)
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			e.Wrap("x", tc.handler)(rec, req)

			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d", rec.Code, tc.status)
			}
			if tc.body != "" && rec.Body.String() != tc.body {
				t.Errorf("body = %q, want %q", rec.Body.String(), tc.body)
			}
			if tc.errKind != "" {
				var env schema.Envelope
				var apiErr schema.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("body is not one envelope: %v: %q", err, rec.Body.String())
				}
				if err := env.Open(schema.ServeV1, &apiErr); err != nil {
					t.Fatal(err)
				}
				if apiErr.Kind != tc.errKind || apiErr.RunID != tc.errRunID {
					t.Errorf("error = %+v, want kind %q run_id %q", apiErr, tc.errKind, tc.errRunID)
				}
			}
			if got := rec.Header().Get("Retry-After"); got != "" {
				t.Errorf("Retry-After = %q without RetryAfterSec", got)
			}
			if rec.Flushed != tc.flushed {
				t.Errorf("flushed = %v, want %v", rec.Flushed, tc.flushed)
			}
			if got := !e.LastPanic().IsZero(); got != tc.panicked {
				t.Errorf("LastPanic set = %v, want %v", got, tc.panicked)
			}

			counts, latency := e.Snapshot()
			if counts["x"] != tc.counts {
				t.Errorf("counts = %+v, want %+v", counts["x"], tc.counts)
			}
			if latency["x"].Count != 1 {
				t.Errorf("latency histogram = %+v, want one observation", latency["x"])
			}

			var line map[string]any
			for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
				var rec map[string]any
				if err := json.Unmarshal([]byte(raw), &rec); err != nil {
					t.Fatalf("log line %q: %v", raw, err)
				}
				if rec["msg"] == "request" {
					line = rec
				}
			}
			if line == nil {
				t.Fatalf("no request log line in %s", logs.String())
			}
			if line["run_id"] != tc.logRunID || line["endpoint"] != "x" || line["status"] != float64(tc.status) {
				t.Errorf("request line = %v", line)
			}
			if got := strings.Contains(logs.String(), `"msg":"panic recovered"`); got != tc.panicked {
				t.Errorf("panic log line present = %v, want %v", got, tc.panicked)
			}
		})
	}
}

// TestWriteErrorRetryAfter: a RetryAfterSec in the body is mirrored in
// the Retry-After header, and the returned bytes are what was sent.
func TestWriteErrorRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	body := WriteError(rec, http.StatusTooManyRequests, schema.ErrorResponse{
		Error: "slow down", Kind: "overload", RetryAfterSec: 2})
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2", got)
	}
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Errorf("returned body differs from the written one")
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
}

// TestWrapConcurrent: requests on several endpoints, each naming its
// own run, race with Snapshot; every request is counted exactly once.
func TestWrapConcurrent(t *testing.T) {
	e := NewEndpoints(slog.New(slog.NewTextHandler(io.Discard, nil)))
	names := []string{"a", "b", "c"}
	const perName = 50
	var wg sync.WaitGroup
	for _, name := range names {
		h := e.Wrap(name, func(w http.ResponseWriter, r *http.Request) {
			AdoptRunID(r)
			w.WriteHeader(http.StatusNoContent)
		})
		for i := 0; i < perName; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
				e.Snapshot()
			}()
		}
	}
	wg.Wait()
	counts, latency := e.Snapshot()
	for _, name := range names {
		if counts[name].Requests != perName || counts[name].OK != perName || latency[name].Count != perName {
			t.Errorf("%s: counts %+v, latency count %d, want %d each", name, counts[name], latency[name].Count, perName)
		}
	}
}
