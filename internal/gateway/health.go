// Active health probing with a per-backend state machine. Each
// backend is healthy (serving, preferred), degraded (serving, used
// only when no healthy backend owns the key — a 503-degraded healthz,
// a full queue, or a broken store), ejected (not serving; consecutive
// probe or proxy transport failures crossed the threshold), or
// half-open (ejected, cooled down, being probed for re-admission).
// The proxy path feeds the same machine passively: a transport-level
// failure counts like a failed probe, so a kill -9'd backend is
// ejected by the very traffic that discovered it, not a probe period
// later.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"roload/internal/schema"
)

// Backend states.
const (
	stateHealthy  = "healthy"
	stateDegraded = "degraded"
	stateEjected  = "ejected"
	stateHalfOpen = "half-open"
)

// backendHealth is one backend's live state, guarded by its own
// mutex so probing one backend never blocks routing decisions about
// another.
type backendHealth struct {
	mu    sync.Mutex
	state string
	// consecFails counts consecutive failures (probe or proxy
	// transport); consecOKs consecutive successful half-open probes.
	consecFails int
	consecOKs   int
	// ejectedAt stamps the most recent ejection for the half-open
	// cooldown.
	ejectedAt time.Time
	lastErr   string
	// queueDepth/queueCap echo the backend's last healthz body.
	queueDepth int
	queueCap   int

	probes        uint64
	probeFailures uint64
	ejections     uint64
	readmissions  uint64
	proxied       uint64
	failures      uint64
}

// prober owns the per-backend health map and the probe loop.
type prober struct {
	cfg      Config
	client   *http.Client
	now      func() time.Time
	backends map[string]*backendHealth
	// onChange is notified (non-blocking) whenever a backend changes
	// state — the SSE proxy and tests wake on it.
	onChange func(backend, from, to string)
}

func newProber(cfg Config, transport http.RoundTripper, targets []string, onChange func(b, from, to string)) *prober {
	p := &prober{
		cfg: cfg,
		client: &http.Client{
			Transport: transport,
			Timeout:   time.Duration(cfg.ProbeTimeoutMS) * time.Millisecond,
		},
		now:      cfg.Now,
		backends: make(map[string]*backendHealth, len(targets)),
		onChange: onChange,
	}
	for _, b := range targets {
		p.backends[b] = &backendHealth{state: stateHealthy}
	}
	return p
}

// run probes every backend on the configured period until ctx ends.
func (p *prober) run(ctx context.Context) {
	interval := time.Duration(p.cfg.ProbeIntervalMS) * time.Millisecond
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.probeAll(ctx)
		}
	}
}

// probeAll probes every backend concurrently and waits for the round
// to finish.
func (p *prober) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for b := range p.backends {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			p.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probeVerdict classifies one healthz exchange.
type probeVerdict int

const (
	probeOK probeVerdict = iota
	probeDegraded
	probeFailed
)

// probe performs one healthz exchange against backend and feeds the
// state machine. An ejected backend inside its cooldown is skipped.
func (p *prober) probe(ctx context.Context, backend string) {
	h := p.backends[backend]
	h.mu.Lock()
	if h.state == stateEjected {
		cooldown := time.Duration(p.cfg.HalfOpenAfterMS) * time.Millisecond
		if p.now().Sub(h.ejectedAt) < cooldown {
			h.mu.Unlock()
			return
		}
		p.transitionLocked(backend, h, stateHalfOpen)
	}
	h.probes++
	h.mu.Unlock()

	verdict, body, detail := p.exchange(ctx, backend)
	p.noteProbe(backend, verdict, body, detail)
}

// exchange performs the HTTP healthz round trip and classifies it.
// Degradation is decided on the JSON body, not just the status code:
// a 200 whose queue sits at capacity, or whose store reports an
// error, marks the backend degraded — load-aware routing, per the
// healthz body contract.
func (p *prober) exchange(ctx context.Context, backend string) (probeVerdict, *schema.HealthResponse, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return probeFailed, nil, err.Error()
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return probeFailed, nil, err.Error()
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err != nil {
		return probeFailed, nil, err.Error()
	}
	var env schema.Envelope
	var health schema.HealthResponse
	decoded := json.Unmarshal(raw, &env) == nil && env.Open(schema.ServeV1, &health) == nil
	switch {
	case resp.StatusCode == http.StatusOK:
		if decoded {
			if health.QueueCap > 0 && health.QueueDepth >= health.QueueCap {
				return probeDegraded, &health, fmt.Sprintf("queue full (%d/%d)", health.QueueDepth, health.QueueCap)
			}
			if strings.HasPrefix(health.Store, "error") {
				return probeDegraded, &health, "store " + health.Store
			}
		}
		return probeOK, &health, ""
	case resp.StatusCode == http.StatusServiceUnavailable && decoded &&
		(health.Status == "degraded" || health.Status == "draining"):
		// Alive but asking for backoff: degraded, not lost.
		return probeDegraded, &health, "healthz reports " + health.Status
	default:
		return probeFailed, nil, fmt.Sprintf("healthz answered %d", resp.StatusCode)
	}
}

// noteProbe feeds one probe outcome into the state machine.
func (p *prober) noteProbe(backend string, verdict probeVerdict, body *schema.HealthResponse, detail string) {
	h := p.backends[backend]
	h.mu.Lock()
	defer h.mu.Unlock()
	if body != nil {
		h.queueDepth = body.QueueDepth
		h.queueCap = body.QueueCap
	}
	switch verdict {
	case probeOK:
		if h.state == stateEjected {
			// Ejected concurrently — a passive proxy transport failure
			// can land between this probe's state check and now. Ignore
			// the success: re-admission only goes through half-open, and
			// the streak that ejected the backend stays intact for the
			// cooldown's consecutive-failures bookkeeping.
			return
		}
		h.consecFails = 0
		h.lastErr = ""
		switch h.state {
		case stateHalfOpen:
			h.consecOKs++
			if h.consecOKs >= p.cfg.ReadmitAfter {
				h.readmissions++
				p.transitionLocked(backend, h, stateHealthy)
			}
		case stateDegraded:
			p.transitionLocked(backend, h, stateHealthy)
		}
	case probeDegraded:
		h.consecFails = 0
		h.consecOKs = 0
		h.lastErr = detail
		switch h.state {
		case stateHealthy:
			p.transitionLocked(backend, h, stateDegraded)
		case stateHalfOpen:
			// A degraded answer is still an alive answer; re-admission
			// wants clean probes, so stay half-open without progress.
		}
	case probeFailed:
		h.probeFailures++
		h.lastErr = detail
		h.consecOKs = 0
		p.failLocked(backend, h)
	}
}

// noteProxyFailure records a proxy attempt that failed and moved on.
// When transport is set (connection loss, not an HTTP answer) the
// failure also feeds the ejection counter — the passive feed that lets
// live traffic eject a kill -9'd backend ahead of the probe cycle. An
// HTTP-level retry exhaustion (the backend answered, unhappily) only
// counts: the probe loop owns that degradation signal.
func (p *prober) noteProxyFailure(backend string, err error, transport bool) {
	h := p.backends[backend]
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures++
	h.lastErr = err.Error()
	if !transport {
		return
	}
	h.consecOKs = 0
	p.failLocked(backend, h)
}

// noteProxySuccess records a conclusive reply served by backend and
// clears its failure streak.
func (p *prober) noteProxySuccess(backend string) {
	h := p.backends[backend]
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.proxied++
	h.consecFails = 0
}

// failLocked advances the failure streak and ejects past the
// threshold. Half-open backends re-eject on the first failure.
func (p *prober) failLocked(backend string, h *backendHealth) {
	h.consecFails++
	switch h.state {
	case stateEjected:
		return
	case stateHalfOpen:
		h.ejectedAt = p.now()
		p.transitionLocked(backend, h, stateEjected)
	default:
		if h.consecFails >= p.cfg.EjectAfter {
			h.ejections++
			h.ejectedAt = p.now()
			p.transitionLocked(backend, h, stateEjected)
		}
	}
}

// transitionLocked moves a backend to state, resetting the counters
// that belong to the old one, and fires the change hook.
func (p *prober) transitionLocked(backend string, h *backendHealth, state string) {
	from := h.state
	if from == state {
		return
	}
	h.state = state
	if state != stateHalfOpen {
		h.consecOKs = 0
	}
	if state == stateHealthy {
		h.consecFails = 0
	}
	if p.onChange != nil {
		p.onChange(backend, from, state)
	}
}

// stateOf reports a backend's current state.
func (p *prober) stateOf(backend string) string {
	h := p.backends[backend]
	if h == nil {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// admitted reports whether a backend may take live traffic.
func (p *prober) admitted(backend string) bool {
	s := p.stateOf(backend)
	return s == stateHealthy || s == stateDegraded
}

// split partitions a ring preference order into the usable serving
// order: healthy backends first (in ring order), degraded after
// (ring order preserved within each class), ejected and half-open
// skipped.
func (p *prober) split(order []string) []string {
	healthy := make([]string, 0, len(order))
	var degraded []string
	for _, b := range order {
		switch p.stateOf(b) {
		case stateHealthy:
			healthy = append(healthy, b)
		case stateDegraded:
			degraded = append(degraded, b)
		}
	}
	return append(healthy, degraded...)
}

// snapshot renders every backend's metrics row.
func (p *prober) snapshot() map[string]schema.GatewayBackend {
	out := make(map[string]schema.GatewayBackend, len(p.backends))
	for b, h := range p.backends {
		h.mu.Lock()
		out[b] = schema.GatewayBackend{
			State:         h.state,
			Probes:        h.probes,
			ProbeFailures: h.probeFailures,
			Ejections:     h.ejections,
			Readmissions:  h.readmissions,
			Proxied:       h.proxied,
			Failures:      h.failures,
			QueueDepth:    h.queueDepth,
			QueueCap:      h.queueCap,
		}
		h.mu.Unlock()
	}
	return out
}
