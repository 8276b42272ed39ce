// Package gateway is the health-aware sharding front tier of a
// roload-serve fleet: it consistent-hashes requests onto backends by
// image digest (computed gateway-side from the compile group, or
// taken from image_digest when present) so each backend's
// compile-once image cache and store shard instead of duplicating,
// proxies the /v1 surface including the SSE event stream, and stays
// correct when backends fail — active /healthz probing with a
// per-backend state machine (healthy → degraded → ejected, half-open
// re-admission), retry/failover onto the hash ring's next backend
// through the per-backend resilient client (backoff, hedging,
// breaker, idempotency keys), deterministic re-sharding on ejection
// and re-admission, and shadow/mirror forwarding of a configurable
// fraction of live traffic to a canary backend whose responses are
// diffed (never served) and reported through /metrics.
//
// The invariant the package enforces is the fleet-level analog of the
// repository's bit-identical-observables rule: a client-visible
// response is byte-identical whether the request was served first-try,
// retried after a backend died mid-run, or routed around a degraded
// backend. Execution is deterministic, so re-running a spec on the
// failover backend reproduces the exact bytes; the gateway-level
// idempotency pin (internal/retain) bounds re-execution to requests that
// never received a conclusive response.
package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"time"
)

// Config parameterizes a Gateway. The JSON form (DecodeConfig) covers
// the deployable knobs — backends, ring, probing, mirroring — while
// the runtime seams (Logger, Now, Transport) are set programmatically.
type Config struct {
	// Backends are the roload-serve roots to shard across, e.g.
	// ["http://127.0.0.1:8081", "http://127.0.0.1:8082"]. At least one.
	Backends []string `json:"backends"`
	// Canary is the shadow-traffic target. It never serves live
	// responses; a fraction of run/batch traffic is mirrored to it and
	// diffed. "" disables mirroring.
	Canary string `json:"canary,omitempty"`
	// MirrorFraction is the fraction of eligible (successful run/batch)
	// requests mirrored to the canary, in [0,1]. Sampling is
	// deterministic: request n is mirrored iff floor(n*f) increments.
	MirrorFraction float64 `json:"mirror_fraction,omitempty"`
	// VNodes is the number of ring points per backend (0 = 64); more
	// points smooth the shard split at the cost of ring size.
	VNodes int `json:"vnodes,omitempty"`
	// ProbeIntervalMS is the health-probe period (0 = 1000ms).
	ProbeIntervalMS int64 `json:"probe_interval_ms,omitempty"`
	// ProbeTimeoutMS bounds one probe exchange (0 = min(interval, 2s)).
	ProbeTimeoutMS int64 `json:"probe_timeout_ms,omitempty"`
	// EjectAfter is how many consecutive failures (probe or proxy
	// transport) eject a backend (0 = 3).
	EjectAfter int `json:"eject_after,omitempty"`
	// HalfOpenAfterMS is the cooldown before an ejected backend is
	// probed half-open (0 = 5 * probe interval).
	HalfOpenAfterMS int64 `json:"half_open_after_ms,omitempty"`
	// ReadmitAfter is how many consecutive successful half-open probes
	// re-admit an ejected backend (0 = 2).
	ReadmitAfter int `json:"readmit_after,omitempty"`
	// AttemptsPerBackend bounds the per-backend retry loop before the
	// gateway fails over to the next ring backend (0 = 2).
	AttemptsPerBackend int `json:"attempts_per_backend,omitempty"`
	// AttemptTimeoutMS caps one backend attempt's wall clock
	// (0 = 30000). Runs longer than this per attempt should raise it.
	AttemptTimeoutMS int64 `json:"attempt_timeout_ms,omitempty"`
	// MaxBodyBytes caps proxied request bodies (0 = 1 MiB).
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	// Replicas is the artifact copy count R (0 = 2, clamped to the
	// backend count): every artifact put is write-through-replicated to
	// the digest's ring owner plus R−1 successors, and backends push
	// the artifacts they mint (checkpoints, run results) to the same
	// set. 1 disables replication (single copy).
	Replicas int `json:"replicas,omitempty"`

	// Logger receives structured gateway logs (nil = slog default).
	Logger *slog.Logger `json:"-"`
	// Now is the prober's clock seam (nil = time.Now).
	Now func() time.Time `json:"-"`
	// Transport is the HTTP transport shared by probes, SSE proxying
	// and mirror traffic (nil = a dedicated transport).
	Transport http.RoundTripper `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeIntervalMS <= 0 {
		c.ProbeIntervalMS = 1000
	}
	if c.ProbeTimeoutMS <= 0 {
		c.ProbeTimeoutMS = c.ProbeIntervalMS
		if c.ProbeTimeoutMS > 2000 {
			c.ProbeTimeoutMS = 2000
		}
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.HalfOpenAfterMS <= 0 {
		c.HalfOpenAfterMS = 5 * c.ProbeIntervalMS
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.AttemptsPerBackend <= 0 {
		c.AttemptsPerBackend = 2
	}
	if c.AttemptTimeoutMS <= 0 {
		c.AttemptTimeoutMS = 30_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if n := len(c.Backends); n > 0 && c.Replicas > n {
		c.Replicas = n
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate checks the configuration's structural invariants: at least
// one backend, every URL absolute http(s) without path/query/fragment,
// no duplicates, the canary distinct from the backends, the mirror
// fraction in [0,1] (and a canary named when it is positive), and no
// negative tuning values.
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("gateway: config names no backends")
	}
	seen := make(map[string]bool, len(c.Backends)+1)
	for i, b := range c.Backends {
		if err := validateRoot(b); err != nil {
			return fmt.Errorf("gateway: backend %d: %w", i, err)
		}
		if seen[b] {
			return fmt.Errorf("gateway: backend %q listed twice", b)
		}
		seen[b] = true
	}
	if c.Canary != "" {
		if err := validateRoot(c.Canary); err != nil {
			return fmt.Errorf("gateway: canary: %w", err)
		}
		if seen[c.Canary] {
			return fmt.Errorf("gateway: canary %q is also a backend", c.Canary)
		}
	}
	if c.MirrorFraction < 0 || c.MirrorFraction > 1 {
		return fmt.Errorf("gateway: mirror_fraction %v outside [0,1]", c.MirrorFraction)
	}
	if c.MirrorFraction > 0 && c.Canary == "" {
		return fmt.Errorf("gateway: mirror_fraction %v needs a canary", c.MirrorFraction)
	}
	for _, n := range []struct {
		name string
		v    int64
	}{
		{"vnodes", int64(c.VNodes)},
		{"probe_interval_ms", c.ProbeIntervalMS},
		{"probe_timeout_ms", c.ProbeTimeoutMS},
		{"eject_after", int64(c.EjectAfter)},
		{"half_open_after_ms", c.HalfOpenAfterMS},
		{"readmit_after", int64(c.ReadmitAfter)},
		{"attempts_per_backend", int64(c.AttemptsPerBackend)},
		{"attempt_timeout_ms", c.AttemptTimeoutMS},
		{"max_body_bytes", c.MaxBodyBytes},
		{"replicas", int64(c.Replicas)},
	} {
		if n.v < 0 {
			return fmt.Errorf("gateway: %s must be non-negative", n.name)
		}
	}
	return nil
}

// validateRoot checks one backend root URL: absolute http(s), a host,
// and nothing after it — the gateway appends API paths itself.
func validateRoot(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("unparsable url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("url %q must be http or https", raw)
	}
	if u.Host == "" {
		return fmt.Errorf("url %q has no host", raw)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" || u.User != nil {
		return fmt.Errorf("url %q must be a bare root (no path, query, fragment or userinfo)", raw)
	}
	return nil
}

// DecodeConfig decodes the JSON form of a Config strictly (unknown
// fields rejected, so config drift fails loudly) and validates it.
func DecodeConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("gateway: decoding config: %w", err)
	}
	// Trailing garbage after the document is a malformed config, not
	// an extra document.
	if dec.More() {
		return Config{}, fmt.Errorf("gateway: config carries trailing data")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
