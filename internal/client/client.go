// Package client is the resilient Go client of the roload-serve API:
// exponential backoff with full jitter, per-attempt timeouts, hedged
// requests, and automatic idempotency keys so every retry and hedge of
// one logical request is deduplicated server-side — the combination
// that makes "retry until 2xx" safe against injected latency, errors
// and worker panics.
//
// The client never refuses a request locally: every attempt reaches
// the wire, so whoever watches the failures (the gateway's health
// prober, a load generator's report) sees every one of them.
//
// The retry loop treats transport errors and 429/5xx statuses as
// retryable (honouring Retry-After when the server names a backoff)
// and everything else as conclusive. Hedging launches one duplicate
// request after HedgeDelay of silence; whichever answer arrives first
// wins and the straggler is cancelled. Both legs carry the same
// idempotency key, so the server still executes the body exactly once.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roload/internal/schema"
	"roload/internal/telemetry"
)

// Config parameterizes a Client. The zero value (plus BaseURL) is
// usable.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport (nil = a dedicated http.Client; the
	// per-attempt timeout comes from AttemptTimeout, not the client).
	HTTPClient *http.Client
	// MaxAttempts bounds the retry loop per logical request (0 = 4).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts: the pre-jitter delay is min(BaseBackoff << attempt,
	// MaxBackoff), and full jitter picks uniformly in (0, delay]
	// (0 = 100ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout caps one attempt's wall clock, hedge included
	// (0 = 10s).
	AttemptTimeout time.Duration
	// HedgeDelay launches a duplicate request when an attempt has been
	// silent this long; first answer wins (0 = hedging off).
	HedgeDelay time.Duration

	// JitterSeed makes the backoff jitter deterministic for tests
	// (0 = seeded from crypto/rand).
	JitterSeed int64
	// Sleep is the test seam for the backoff wait (nil = a
	// context-aware timer sleep).
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// extraHeaderKey carries caller-supplied headers through the context
// into every attempt of an Exchange — the seam a front tier uses for
// per-backend routing hints (e.g. Roload-Store-Peers) that differ
// between failover targets of one logical request.
type extraHeaderKey struct{}

// WithHeaders returns a context under which every request attempt
// also sends the given headers (overriding same-named defaults).
func WithHeaders(ctx context.Context, h http.Header) context.Context {
	return context.WithValue(ctx, extraHeaderKey{}, h)
}

// APIError is a conclusive non-2xx answer from the server, decoded
// from the roload-serve/v1 error payload.
type APIError struct {
	Status        int
	Kind          string
	Message       string
	RetryAfterSec int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d (%s): %s", e.Status, e.Kind, e.Message)
}

// retryable reports whether a status is worth retrying: throttling,
// shedding, and every 5xx (including injected chaos errors and
// recovered panics, which re-execute server-side because the
// idempotency cache never stores them).
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// RunResult is one successful logical run request.
type RunResult struct {
	Response schema.RunResponse
	// Replayed is set when the server answered from its idempotency
	// cache (an earlier attempt's execution) rather than running again.
	Replayed bool
	// Attempts is the number of attempts made (1 = first try worked);
	// Hedged counts duplicate requests launched by the hedging timer.
	Attempts int
	Hedged   int
	// RunID is the logical run's id, shared with the server (the
	// Roload-Trace header): the handle for Stream and FetchTrace.
	RunID string
	// Trace is the client-side roload-trace/v1 span document of this
	// run — the "run" root span and one "attempt" span per try. Merge
	// it with FetchTrace's server document for the end-to-end tree.
	Trace schema.TraceDoc
}

// Client is a resilient roload-serve API client. Safe for concurrent
// use.
type Client struct {
	cfg Config

	keyPrefix string
	keySeq    atomic.Uint64

	mu  sync.Mutex
	rng *mrand.Rand

	// attemptUS and runUS are the client-side latency distributions:
	// one observation per HTTP attempt, and one per concluded logical
	// run (retries, backoff and hedging included).
	attemptUS telemetry.Histogram
	runUS     telemetry.Histogram
}

// New builds a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	var prefix [8]byte
	rand.Read(prefix[:]) //nolint:errcheck // crypto/rand.Read cannot fail
	if seed == 0 {
		var b [8]byte
		rand.Read(b[:]) //nolint:errcheck
		for _, x := range b {
			seed = seed<<8 | int64(x)
		}
	}
	return &Client{
		cfg:       cfg,
		keyPrefix: hex.EncodeToString(prefix[:]),
		rng:       mrand.New(mrand.NewSource(seed)),
	}
}

// nextKey mints the idempotency key for one logical request: a
// client-unique prefix plus a sequence number. Every retry and hedge
// of the request reuses it, which is what lets the server deduplicate.
func (c *Client) nextKey() string {
	return fmt.Sprintf("%s-%d", c.keyPrefix, c.keySeq.Add(1))
}

// backoff computes the post-attempt delay: exponential with full
// jitter, floored by the server's Retry-After when one was given.
func (c *Client) backoff(attempt, retryAfterSec int) time.Duration {
	// Shift only while the result stays under MaxBackoff: a shift past
	// it could overflow to a negative or zero delay.
	d := c.cfg.MaxBackoff
	if c.cfg.BaseBackoff <= d>>attempt {
		d = c.cfg.BaseBackoff << attempt
	}
	c.mu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d))) + 1
	c.mu.Unlock()
	if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
		d = ra
	}
	return d
}

// Run executes one logical run request with retries, hedging and
// idempotency. It returns the first conclusive answer: a RunResult for
// 2xx, an *APIError for a non-retryable error status, or the last
// transport/retryable failure when the attempt budget runs out.
func (c *Client) Run(ctx context.Context, req schema.RunRequest) (*RunResult, error) {
	return c.RunWithID(ctx, telemetry.NewRunID(), req)
}

// RunWithID is Run under a caller-chosen run id, which lets the caller
// Stream the run's live events before posting it. Every retry and hedge
// reuses the id (the server deduplicates execution by idempotency key
// and ignores event publication for an already-finished run), so the
// stream sees exactly one run's worth of events.
func (c *Client) RunWithID(ctx context.Context, runID string, req schema.RunRequest) (*RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	reply, attempts, hedged, doc, err := c.execute(ctx, c.nextKey(), runID, http.MethodPost, "/v1/run", body)
	if err != nil {
		return nil, err
	}
	res, cerr := c.conclude(reply, attempts, hedged)
	if res != nil {
		res.RunID = runID
		res.Trace = doc
	}
	return res, cerr
}

// execute drives the generic resilient exchange every endpoint method
// shares: per-attempt spans under a client trace, hedging, exponential
// backoff with full jitter and Retry-After floors — all attempts under
// one idempotency key so the server executes the body at most once.
// It returns the first conclusive reply with the attempt/hedge counts
// and the client-side trace document, or the last failure when the
// attempt budget runs out.
func (c *Client) execute(ctx context.Context, key, runID, method, path string, body []byte) (*httpReply, int, int, schema.TraceDoc, error) {
	tr := telemetry.NewTrace(runID, "c")
	root := tr.Start("run", "")
	defer root.End()
	hedged := 0
	var lastErr error
	runStart := time.Now()
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		aSpan := root.Child("attempt")
		aSpan.SetAttrUint("attempt", uint64(attempt+1))
		aStart := time.Now()
		reply, err := c.attempt(ctx, key, runID, aSpan.ID(), method, path, body, &hedged)
		c.attemptUS.Observe(uint64(time.Since(aStart).Microseconds()))
		if err != nil {
			aSpan.SetAttr("error", err.Error())
		} else {
			aSpan.SetAttrUint("status", uint64(reply.status))
		}
		aSpan.End()
		if err == nil && !retryable(reply.status) {
			c.runUS.Observe(uint64(time.Since(runStart).Microseconds()))
			root.SetAttrUint("attempts", uint64(attempt+1))
			root.End()
			return reply, attempt + 1, hedged, tr.Doc(), nil
		}
		retryAfter := 0
		if err != nil {
			lastErr = err
		} else {
			apiErr := reply.apiError()
			lastErr = apiErr
			retryAfter = apiErr.RetryAfterSec
		}
		if ctx.Err() != nil {
			return nil, 0, hedged, schema.TraceDoc{}, ctx.Err()
		}
		if attempt+1 == c.cfg.MaxAttempts {
			break
		}
		if err := c.cfg.Sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return nil, 0, hedged, schema.TraceDoc{}, err
		}
	}
	return nil, 0, hedged, schema.TraceDoc{}, fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// conclude decodes a conclusive reply into the caller's result.
func (c *Client) conclude(reply *httpReply, attempts, hedged int) (*RunResult, error) {
	if reply.status != http.StatusOK {
		return nil, reply.apiError()
	}
	var resp schema.RunResponse
	if err := reply.env.Open(schema.ServeV1, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding run response: %w", err)
	}
	return &RunResult{
		Response: resp,
		Replayed: reply.replayed,
		Attempts: attempts,
		Hedged:   hedged,
	}, nil
}

// Reply is one conclusive raw HTTP exchange: the status, the exact
// body bytes, and the winning attempt's response headers. It is the
// currency of Exchange, the proxy-grade entry point — nothing is
// re-encoded, so a proxy forwarding Body preserves byte-identity with
// the origin's answer.
type Reply struct {
	Status int
	Body   []byte
	Header http.Header
	// Replayed is set when the server answered from its idempotency
	// cache rather than executing again.
	Replayed bool
	// Attempts counts tries made (1 = first try worked); Hedged counts
	// duplicate requests launched by the hedging timer.
	Attempts int
	Hedged   int
}

// Exchange performs one logical request under a caller-supplied
// idempotency key, with the full resilience machinery of this client:
// per-attempt timeouts, hedging, exponential backoff with jitter and
// Retry-After floors. Because the key is the caller's, a fleet front
// tier can pin one key to a whole failover chain — every attempt, on
// every backend tried, names the same key, which is what scopes "at
// most one execution per conclusive response" across backend moves.
//
// Any conclusive answer — 2xx or a non-retryable error status — comes
// back as a *Reply with a nil error; retryable statuses (429/5xx) are
// retried here and, when the attempt budget runs out, surface as an
// error (so the caller can fail over).
func (c *Client) Exchange(ctx context.Context, key, runID, method, path string, body []byte) (*Reply, error) {
	if key == "" {
		key = c.nextKey()
	}
	reply, attempts, hedged, _, err := c.execute(ctx, key, runID, method, path, body)
	if err != nil {
		return nil, err
	}
	return &Reply{
		Status:   reply.status,
		Body:     reply.raw,
		Header:   reply.header,
		Replayed: reply.replayed,
		Attempts: attempts,
		Hedged:   hedged,
	}, nil
}

// httpReply is one attempt's decoded HTTP answer. raw keeps the exact
// body bytes for endpoints whose success answer is a bare artifact
// document rather than a roload-serve/v1 envelope (GET /v1/images).
type httpReply struct {
	status   int
	env      schema.Envelope
	raw      []byte
	header   http.Header
	replayed bool
	retryHdr string
}

func (r *httpReply) apiError() *APIError {
	var e schema.ErrorResponse
	if err := r.env.Open(schema.ServeV1, &e); err != nil {
		e = schema.ErrorResponse{Error: fmt.Sprintf("undecodable %d response", r.status), Kind: "internal"}
	}
	if e.RetryAfterSec == 0 && r.retryHdr != "" {
		if n, err := strconv.Atoi(r.retryHdr); err == nil {
			e.RetryAfterSec = n
		}
	}
	return &APIError{Status: r.status, Kind: e.Kind, Message: e.Error, RetryAfterSec: e.RetryAfterSec}
}

// attempt performs one (possibly hedged) attempt under the per-attempt
// timeout. With hedging enabled, a duplicate request is launched after
// HedgeDelay of silence; the first leg to answer wins and the other is
// cancelled. Both legs carry the same idempotency key.
func (c *Client) attempt(ctx context.Context, key, runID, parentSpan, method, path string, body []byte, hedged *int) (*httpReply, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	if c.cfg.HedgeDelay <= 0 {
		return c.do(actx, key, runID, parentSpan, method, path, body)
	}

	type legResult struct {
		reply *httpReply
		err   error
	}
	// Buffered to the maximum number of legs: a losing leg's send never
	// blocks, so no goroutine outlives the attempt.
	results := make(chan legResult, 2)
	launch := func() {
		go func() {
			reply, err := c.do(actx, key, runID, parentSpan, method, path, body)
			results <- legResult{reply, err}
		}()
	}
	launch()
	legs, answered := 1, 0
	hedgeTimer := time.NewTimer(c.cfg.HedgeDelay)
	defer hedgeTimer.Stop()
	var firstErr error
	for {
		select {
		case r := <-results:
			answered++
			if r.err == nil {
				cancel() // the straggler (if any) is abandoned
				return r.reply, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if answered == legs {
				return nil, firstErr
			}
		case <-hedgeTimer.C:
			if legs == 1 {
				legs++
				*hedged++
				launch()
			}
		}
	}
}

// do performs one HTTP exchange. The Roload-Trace header carries the
// logical run's id so the server adopts it instead of minting one, and
// Roload-Trace-Parent names the client's attempt span so the merged
// trace links the server's request span under this attempt.
func (c *Client) do(ctx context.Context, key, runID, parentSpan, method, path string, body []byte) (*httpReply, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	req.Header.Set("Roload-Trace", runID)
	req.Header.Set("Roload-Trace-Parent", parentSpan)
	if extra, ok := ctx.Value(extraHeaderKey{}).(http.Header); ok {
		for k, vs := range extra {
			req.Header.Del(k)
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	reply := &httpReply{
		status:   resp.StatusCode,
		raw:      data,
		header:   resp.Header,
		replayed: resp.Header.Get("Idempotency-Replayed") == "true",
		retryHdr: resp.Header.Get("Retry-After"),
	}
	if err := json.Unmarshal(data, &reply.env); err != nil {
		return nil, fmt.Errorf("client: undecodable %d response body: %w", resp.StatusCode, err)
	}
	return reply, nil
}
