package schema

// The roload-gateway observability payloads. Both are served inside
// the shared roload-serve/v1 envelope (the gateway speaks the same
// wire dialect as the backends it fronts): GET /healthz answers a
// GatewayHealth, GET /metrics a GatewayMetrics.

// GatewayHealth is the gateway's /healthz payload: 200 while at least
// one backend is admitted (healthy or degraded) and the gateway is
// not draining, 503 otherwise.
type GatewayHealth struct {
	Status string `json:"status"` // "ok", "degraded" or "draining"
	// Backends maps each configured backend URL to its probe state:
	// "healthy", "degraded", "ejected" or "half-open".
	Backends map[string]string `json:"backends"`
	// Admitted counts backends currently taking traffic.
	Admitted int `json:"admitted"`
	// Canary is the mirror target's probe state ("" without a canary).
	Canary string `json:"canary,omitempty"`
}

// GatewayBackend is one backend's /metrics row.
type GatewayBackend struct {
	// State is the probe state machine's current state.
	State string `json:"state"`
	// Probes counts health probes sent; ProbeFailures those that
	// failed (transport error or a non-healthz answer).
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Ejections counts healthy→ejected transitions; Readmissions the
	// half-open→healthy ones.
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	// Proxied counts conclusive replies this backend served; Failures
	// counts proxy attempts that errored (transport loss or retry
	// exhaustion) and moved on to the next backend.
	Proxied  uint64 `json:"proxied"`
	Failures uint64 `json:"failures"`
	// QueueDepth/QueueCap echo the backend's last healthz body, the
	// load signal behind a degraded mark.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
}

// GatewayMirror counts the shadow-traffic surface.
type GatewayMirror struct {
	// Mirrored counts requests copied to the canary; Diffs those whose
	// canary answer differed from the served answer; Errors canary
	// exchanges that failed outright.
	Mirrored uint64 `json:"mirrored"`
	Diffs    uint64 `json:"diffs"`
	Errors   uint64 `json:"errors"`
	// LastDiff describes the most recent divergence (endpoint plus
	// first differing byte offset), "" when none.
	LastDiff string `json:"last_diff,omitempty"`
}

// GatewayReplication counts the gateway's artifact-replication
// machinery: every artifact put is write-through-replicated to the
// ring owner plus R−1 successors, and a read served by a non-owner
// repairs the copies that answered 404.
type GatewayReplication struct {
	// Replicas is the configured copy count R.
	Replicas int `json:"replicas"`
	// Enqueued counts replication jobs accepted; Replicated counts
	// per-peer copies that landed; Failed counts per-peer copies that
	// did not (the local/primary write already succeeded); Dropped
	// counts jobs discarded because the queue was full.
	Enqueued   uint64 `json:"enqueued"`
	Replicated uint64 `json:"replicated"`
	Failed     uint64 `json:"failed,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
	// ReadRepairs counts read-repair jobs: a store GET that had to
	// fall through past a 404 before finding the digest, repairing the
	// missing copies from the reply.
	ReadRepairs uint64 `json:"read_repairs,omitempty"`
	// QueueDepth is the replication backlog right now — the lag gauge:
	// jobs accepted but not yet pushed to their peers.
	QueueDepth int `json:"queue_depth"`
}

// GatewayMetrics is the gateway's /metrics payload.
type GatewayMetrics struct {
	// Backends maps backend URL (canary included) to its counters.
	Backends map[string]GatewayBackend `json:"backends"`
	// Endpoints counts gateway requests by outcome, per endpoint.
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	// EndpointLatencyUS histograms whole-request latency per endpoint
	// (microseconds).
	EndpointLatencyUS map[string]Histogram `json:"endpoint_latency_us,omitempty"`
	// Retries counts backend attempts beyond a request's first;
	// Failovers counts moves to a different backend after a failed
	// one; NoBackend counts requests answered 503 because no admitted
	// backend remained.
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	NoBackend uint64 `json:"no_backend"`
	// Idempotency counts the gateway-level replay cache: Hits are
	// requests answered from a pinned conclusive response without
	// touching any backend.
	Idempotency CacheMetrics `json:"idempotency_cache"`
	// Mirror is the shadow-traffic accounting (zero without a canary).
	Mirror GatewayMirror `json:"mirror"`
	// Replication is the artifact-replication accounting: the
	// write-through fan-out and read-repair machinery behind
	// /v1/store.
	Replication GatewayReplication `json:"replication"`
	// ProxyLatencyUS distributes whole-proxy latency (all backends
	// tried, microseconds).
	ProxyLatencyUS Histogram `json:"proxy_latency_us"`
	// UptimeSec is seconds since the gateway was built; Draining
	// reports an in-progress drain.
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`
}
