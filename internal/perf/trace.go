package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"roload/internal/schema"
	"roload/internal/telemetry"
)

// tracer records the spans of one traced run from the benchmark's side
// of each layer boundary: around its own client calls (with a
// connection-wait child), around the gateway's and each backend's
// Handler, and around peer artifact pushes. The backends' own spans
// (queue-wait, compile, execute) are merged in per request from
// GET /v1/runs/{id}/trace. A nil *tracer records nothing, so the
// untraced run takes exactly the same code path minus the spans.
type tracer struct {
	mu sync.Mutex
	// current maps a Roload-Trace id to its in-flight request. A durable
	// replay reuses its original's batch id, but only after the original
	// finished, so one entry per id suffices.
	current map[string]*reqTrace
	seq     int
	done    []schema.Span
	// loose holds spans that belong to no request: peer pushes and the
	// layer pass.
	loose *telemetry.Trace
}

func newTracer() *tracer {
	return &tracer{current: make(map[string]*reqTrace), loose: telemetry.NewTrace("loose", "q")}
}

// reqTrace is one request's span tree on the benchmark's side.
type reqTrace struct {
	seq    int
	tr     *telemetry.Trace
	client *telemetry.Span

	// gateway is the span around the gateway's Handler; service is the
	// id of the span around the backend Handler that served last.
	mu      sync.Mutex
	gateway *telemetry.Span
	service string
}

// begin opens the client span of a request about to be sent.
func (t *tracer) begin(runID string) *reqTrace {
	if t == nil {
		return nil
	}
	tr := telemetry.NewTrace(runID, "p")
	rt := &reqTrace{tr: tr, client: tr.Start("client", "")}
	t.mu.Lock()
	t.seq++
	rt.seq = t.seq
	t.current[runID] = rt
	t.mu.Unlock()
	return rt
}

// connWait returns ctx instrumented to record, under the client span,
// each wait for a connection from the load generator's pool.
func (rt *reqTrace) connWait(ctx context.Context) context.Context {
	if rt == nil {
		return ctx
	}
	var mu sync.Mutex
	var wait *telemetry.Span
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) {
			mu.Lock()
			wait = rt.client.Child("conn-wait")
			mu.Unlock()
		},
		GotConn: func(httptrace.GotConnInfo) {
			mu.Lock()
			wait.End()
			mu.Unlock()
		},
	})
}

// finish closes the request's client span and files its tree, merged
// with the backend's own span document. The backend's request span was
// parented under the gateway's internal attempt span, which no document
// holds; it is re-parented under the benchmark's span around the
// backend Handler. Span ids get the request's sequence number appended
// so trees of different requests never collide in one file.
func (t *tracer) finish(rt *reqTrace, backend schema.TraceDoc) {
	if rt == nil {
		return
	}
	rt.client.End()
	rt.mu.Lock()
	service := rt.service
	rt.mu.Unlock()
	own := rt.tr.Doc()
	ids := make(map[string]bool, len(backend.Spans))
	for _, s := range backend.Spans {
		ids[s.ID] = true
	}
	for i, s := range backend.Spans {
		if !ids[s.Parent] {
			backend.Spans[i].Parent = service
		}
	}
	merged := telemetry.Merge(own, backend)
	suffix := fmt.Sprintf("@%d", rt.seq)
	for i := range merged.Spans {
		merged.Spans[i].ID += suffix
		if merged.Spans[i].Parent != "" {
			merged.Spans[i].Parent += suffix
		}
	}
	t.mu.Lock()
	if t.current[own.RunID] == rt {
		delete(t.current, own.RunID)
	}
	t.done = append(t.done, merged.Spans...)
	t.mu.Unlock()
}

// wrap returns h instrumented for the traced run: a span around every
// run or batch request it serves (on the gateway "gateway", under the
// request's client span; on a backend "service", under its gateway
// span) and around every peer artifact push it receives.
func (t *tracer) wrap(tier string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/store/") {
			span := t.loose.Start("replication.push", "")
			span.SetAttr("tier", tier)
			defer span.End()
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		rt := t.current[r.Header.Get("Roload-Trace")]
		t.mu.Unlock()
		if rt == nil || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		rt.mu.Lock()
		var span *telemetry.Span
		if tier == gatewayTier {
			span = rt.client.Child("gateway")
			rt.gateway = span
		} else {
			span = rt.gateway.Child("service")
			rt.service = span.ID()
		}
		rt.mu.Unlock()
		span.SetAttr("tier", tier)
		defer span.End()
		h.ServeHTTP(w, r)
	})
}

// spans returns the trace the layer pass records into (nil for an
// untraced run).
func (t *tracer) spans() *telemetry.Trace {
	if t == nil {
		return nil
	}
	return t.loose
}

// doc returns every span recorded so far as one document.
func (t *tracer) doc(name string) schema.TraceDoc {
	t.mu.Lock()
	spans := append([]schema.Span(nil), t.done...)
	t.mu.Unlock()
	spans = append(spans, t.loose.Doc().Spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].ID < spans[j].ID
	})
	return schema.TraceDoc{Schema: schema.TraceV1, RunID: name, Spans: spans}
}

// spanTree indexes a span document for the self-time arithmetic.
type spanTree struct {
	kids map[string][]schema.Span
}

func newSpanTree(spans []schema.Span) spanTree {
	x := spanTree{kids: make(map[string][]schema.Span)}
	for _, s := range spans {
		if s.Parent != "" {
			x.kids[s.Parent] = append(x.kids[s.Parent], s)
		}
	}
	return x
}

// covered returns how many microseconds of s are covered by the
// nearest descendants for which pick is true (searching through
// descendants for which it is false), counting overlaps once.
func (x spanTree) covered(s schema.Span, pick func(schema.Span) bool) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	var walk func(id string)
	walk = func(id string) {
		for _, c := range x.kids[id] {
			if !pick(c) {
				walk(c.ID)
				continue
			}
			lo, hi := max(c.StartUS, s.StartUS), min(c.StartUS+c.DurUS, s.StartUS+s.DurUS)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
	}
	walk(s.ID)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}

// self is a span's own time: its duration minus what its children
// cover.
func (x spanTree) self(s schema.Span) int64 {
	return s.DurUS - x.covered(s, func(schema.Span) bool { return true })
}

// spanStats summarizes the spans of one name in a layers file.
type spanStats struct {
	Count       int     `json:"count"`
	TotalMS     float64 `json:"total_ms"`
	SelfTotalMS float64 `json:"self_total_ms"`
	SelfP50MS   float64 `json:"self_p50_ms"`
}

// writeTraceFiles writes a traced run's files to e.traceDir:
// <name>.trace.json, every span as Chrome trace-event JSON, and
// <name>.layers.json, each span name's count, time and self time plus
// the run's per-layer metrics.
func writeTraceFiles(e *env, name string, doc schema.TraceDoc, layers []metricValue) error {
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return err
	}
	var chrome bytes.Buffer
	if err := telemetry.WriteChromeTrace(&chrome, doc); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.traceDir, name+".trace.json"), chrome.Bytes(), 0o644); err != nil {
		return err
	}
	tree := newSpanTree(doc.Spans)
	self := make(map[string][]float64)
	stats := make(map[string]*spanStats)
	for _, s := range doc.Spans {
		st := stats[s.Name]
		if st == nil {
			st = &spanStats{}
			stats[s.Name] = st
		}
		own := float64(tree.self(s)) / 1e3
		st.Count++
		st.TotalMS += float64(s.DurUS) / 1e3
		st.SelfTotalMS += own
		self[s.Name] = append(self[s.Name], own)
	}
	for n, st := range stats {
		st.SelfP50MS = median(self[n])
	}
	out, err := json.MarshalIndent(struct {
		Schema   string                `json:"schema"`
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Seconds  int                   `json:"seconds"`
		Spans    map[string]*spanStats `json:"spans"`
		Metrics  []metricValue         `json:"metrics"`
	}{"roload-perf-layers/v1", name, e.seed, e.seconds, stats, layers}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.traceDir, name+".layers.json"), append(out, '\n'), 0o644)
}
