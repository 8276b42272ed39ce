package perf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"roload/internal/client"
	"roload/internal/core"
	"roload/internal/kernel"
	"roload/internal/schema"
	"roload/internal/spec"
	"roload/internal/store"
)

// serveSpec parameterizes one serve workload: a warm-up, then an
// open-loop phase at a fixed rate, then a closed-loop phase of a fixed
// request count, all through the gateway.
type serveSpec struct {
	name    string
	path    string
	durable bool
	// rate is the open-loop arrival rate in requests per second, a third
	// to a half of the workload's closed-loop capacity.
	rate float64
	// closedRate sizes the closed-loop phase at closedRate requests per
	// second of phase; a fixed count keeps cache growth the same on
	// every run. clients is how many callers send them.
	closedRate float64
	clients    int
	// limit is the latency limit: a request slower than it misses.
	limit time.Duration
	gen   genFunc
}

var (
	serveSmall = &serveSpec{name: "serve-small", path: "/v1/run",
		rate: 150, closedRate: 320, clients: 2, limit: 50 * time.Millisecond, gen: genSmall}
	serveMix = &serveSpec{name: "serve-mix", path: "/v1/run",
		rate: 25, closedRate: 50, clients: 1, limit: 250 * time.Millisecond, gen: genMix}
	serveDurable = &serveSpec{name: "serve-durable", path: "/v1/batch", durable: true,
		rate: 30, closedRate: 140, clients: 2, limit: 100 * time.Millisecond, gen: genDurable}
)

// serveRun is one run of a serve workload against its fleet.
type serveRun struct {
	spec   *serveSpec
	env    *env
	fleet  *fleet
	client *client.Client

	stream []request
	// openFrom is the index of the open-loop phase's first request.
	openFrom int
	// done[i] closes once request i has answered and been checked: a
	// replay waits for its original.
	done []chan struct{}
	refs map[cell]kernel.RunResult

	mu sync.Mutex
	// bodies maps a request body's hash to its first response's hash:
	// identical requests must get byte-identical responses.
	bodies map[[32]byte][32]byte
	// batches holds each new batch's checked report, for its replays;
	// minted lists the checkpoint digests the new batches stored.
	batches map[int]*schema.BatchReport
	minted  []string
}

func (s *serveSpec) setup(e *env) (instance, error) {
	f, err := startFleet(e.dir, s.durable, e.tr)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	return &serveRun{
		spec:  s,
		env:   e,
		fleet: f,
		// All load comes from this one client over at most nproc
		// connections.
		client: client.New(client.Config{BaseURL: f.url, HTTPClient: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
		}}),
		bodies:  make(map[[32]byte][32]byte),
		batches: make(map[int]*schema.BatchReport),
	}, nil
}

func (r *serveRun) close() { r.fleet.close() }

// cellFor is the reference simulation of a request's program under
// sys: the unsalted, comment-free source, which builds the same image
// (run requests) or the same program behaviour (salted batches).
func cellFor(req request, sys core.SystemKind) cell {
	w, _ := spec.ByName(req.prog)
	return cell{src: w.SourceFor(req.scale), h: req.h, sys: sys}
}

func (r *serveRun) systems() []core.SystemKind {
	if r.spec.durable {
		return batchSystems
	}
	return []core.SystemKind{core.SysFull}
}

func (r *serveRun) drive(ctx context.Context) *result {
	s, e := r.spec, r.env
	res := &result{Workload: s.name, Correct: true}
	nw := int(s.rate * e.warm.Seconds())
	no := int(s.rate * e.phase().Seconds())
	nc := int(s.closedRate * e.phase().Seconds())
	r.stream = s.gen(e.seed, nw+no+nc)
	r.openFrom = nw
	r.done = make([]chan struct{}, len(r.stream))
	for i := range r.done {
		r.done[i] = make(chan struct{})
	}

	// The reference simulations, one per distinct program, through the
	// layer calls: the checks compare every response with them, and a
	// traced run reports their per-layer times.
	var cells []cell
	seen := make(map[cell]bool)
	for _, req := range r.stream {
		for _, sys := range r.systems() {
			if c := cellFor(req, sys); !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	pass := runLayerPass(ctx, cells, workers, e.tr.spans())
	if err := pass.err(); err != nil {
		res.problem("reference simulation: %v", err)
		return res
	}
	r.refs = make(map[cell]kernel.RunResult, len(cells))
	for i, c := range cells {
		r.refs[c] = pass.runs[i]
	}

	if err := resetPeakRSS(); err != nil {
		res.problem("resetting the peak RSS: %v", err)
		return res
	}
	warm := openLoop(ctx, nw, s.rate, r.sender(0))
	before, err := r.fleet.metrics()
	if err != nil {
		res.problem("metrics: %v", err)
		return res
	}
	measuredFrom := time.Now()
	open := openLoop(ctx, no, s.rate, r.sender(nw))
	openEnd := time.Now()
	closed, elapsed := closedLoop(ctx, nc, s.clients, r.sender(nw+no))
	// The caches only grow, so the fleet's peak comes at the end of the
	// closed loop: one value per run.
	rss := peakRSSMiB()
	after, err := r.fleet.metrics()
	if err != nil {
		res.problem("metrics: %v", err)
		return res
	}

	for _, outs := range [][]outcome{warm, open, closed} {
		for _, o := range outs {
			res.Attempted++
			if !o.OK {
				res.Failed++
				res.problem("%s", o.Err)
			}
		}
	}
	lat := latenciesMS(open)
	res.add(metricValue{Name: "p50_ms", Unit: "ms", Value: median(lat), N: len(lat)})
	if p, v, ok := tail(lat); ok {
		res.add(metricValue{Name: fmt.Sprintf("p%g_ms", p), Unit: "ms", Value: v, N: len(lat)})
	}
	res.add(
		metricValue{Name: "slo_miss_pct", Unit: "%", Value: sloMissPct(open, s.limit), N: len(open)},
		metricValue{Name: "capacity_rps", Unit: "1/s", Value: float64(withinLimit(closed, s.limit)) / elapsed.Seconds(), N: len(closed)},
	)
	late := make([]float64, len(open))
	for i, o := range open {
		late[i] = ms(o.Late)
	}
	if p, v, ok := tail(late); ok {
		res.add(metricValue{Name: fmt.Sprintf("late_p%g_ms", p), Unit: "ms", Value: v, N: len(late)})
	}
	res.add(metricValue{Name: "rss_peak_mb", Unit: "MiB", Value: rss, N: 1})

	if e.tr != nil {
		measured := append(append([]outcome(nil), open...), closed...)
		res.Layers = append(res.Layers, pass.metrics()...)
		abl := cells
		if len(abl) > ablationCells {
			abl = abl[:ablationCells]
		}
		mips, err := engineAblation(ctx, pass, abl, e.tr.spans())
		if err != nil {
			res.problem("engine ablation: %v", err)
		}
		res.Layers = append(res.Layers, mips...)
		stack, err := r.stackLayers(before, after, measuredFrom, openEnd, open, measured)
		if err != nil {
			res.problem("store timings: %v", err)
		}
		res.Layers = append(res.Layers, stack...)
		if err := writeTraceFiles(e, s.name, e.tr.doc(s.name), res.Layers); err != nil {
			res.problem("writing trace files: %v", err)
		}
	}
	return res
}

// ablationCells caps the cells the engine ablation re-runs: the
// interpreter is slow.
const ablationCells = 12

func (r *serveRun) sender(base int) sendFunc {
	return func(ctx context.Context, i int, due time.Time) outcome {
		return r.send(ctx, base+i, due)
	}
}

// send performs request i, due at due, and checks the answer.
func (r *serveRun) send(ctx context.Context, i int, due time.Time) outcome {
	req := r.stream[i]
	defer close(r.done[i])
	if req.replay >= 0 {
		select {
		case <-r.done[req.replay]:
		case <-ctx.Done():
			return outcome{Err: ctx.Err().Error()}
		}
	}
	rt := r.env.tr.begin(req.runID)
	late := time.Since(due)
	reply, err := r.client.Exchange(rt.connWait(ctx), "", req.runID, http.MethodPost, r.spec.path, req.body)
	o := outcome{Latency: time.Since(due), Late: late}
	if err != nil {
		var apiErr *client.APIError
		o.Refused = errors.As(err, &apiErr) &&
			(apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable)
		o.Err = fmt.Sprintf("request %d (%s): %v", i, req.runID, err)
		r.env.tr.finish(rt, schema.TraceDoc{})
		return o
	}
	o.Attempts = reply.Attempts
	if err := r.check(i, reply); err != nil {
		o.Err = fmt.Sprintf("request %d (%s): %v", i, req.runID, err)
	} else {
		o.OK = true
	}
	if rt != nil {
		r.env.tr.finish(rt, backendTrace(reply, req.runID))
	}
	return o
}

// backendTrace fetches the span document the serving backend keeps for
// a run (an empty document if it cannot).
func backendTrace(reply *client.Reply, runID string) schema.TraceDoc {
	var doc schema.TraceDoc
	resp, err := http.Get(reply.Header.Get("Roload-Gateway-Backend") + "/v1/runs/" + runID + "/trace")
	if err != nil {
		return doc
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&doc) //nolint:errcheck // a trace that does not decode merges as empty
	}
	return doc
}

func openBody(body []byte, out any) error {
	var env schema.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	return env.Open(schema.ServeV1, out)
}

func exitStatus(res kernel.RunResult) int {
	if res.Exited {
		return res.Code & 0xff
	}
	return 128 + int(res.Signal)
}

// sameRun compares a run response with its reference simulation: the
// output and exit status always, the cycle and instruction counts when
// the program's layout is the reference's too.
func sameRun(resp schema.RunResponse, ref kernel.RunResult, counts bool) error {
	if resp.Stdout != string(ref.Stdout) || resp.ExitStatus != exitStatus(ref) {
		return fmt.Errorf("stdout %q exit %d, want %q exit %d", resp.Stdout, resp.ExitStatus, ref.Stdout, exitStatus(ref))
	}
	if !counts {
		return nil
	}
	if resp.Metrics == nil || resp.Metrics.Cycles != ref.Cycles || resp.Metrics.Instret != ref.Instret {
		return fmt.Errorf("metrics %+v, want cycles %d instret %d", resp.Metrics, ref.Cycles, ref.Instret)
	}
	return nil
}

func (r *serveRun) check(i int, reply *client.Reply) error {
	req := r.stream[i]
	if reply.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", reply.Status, bytes.SplitN(reply.Body, []byte("\n"), 2)[0])
	}
	if r.spec.durable {
		return r.checkBatch(i, reply.Body)
	}
	var resp schema.RunResponse
	if err := openBody(reply.Body, &resp); err != nil {
		return err
	}
	if err := sameRun(resp, r.refs[cellFor(req, core.SysFull)], true); err != nil {
		return err
	}
	k, v := sha256.Sum256(req.body), sha256.Sum256(reply.Body)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.bodies[k]; ok && prev != v {
		return fmt.Errorf("an identical earlier request got different response bytes")
	}
	r.bodies[k] = v
	return nil
}

// checkBatch checks a batch report: a new batch's runs against the
// references (output and exit status only: the data salt moves the
// layout), a replay's runs against its original, byte for byte.
func (r *serveRun) checkBatch(i int, body []byte) error {
	req := r.stream[i]
	var rep schema.BatchReport
	if err := openBody(body, &rep); err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return err
	}
	if len(rep.Runs) != len(batchRuns) {
		return fmt.Errorf("%d runs, want %d", len(rep.Runs), len(batchRuns))
	}
	if req.replay < 0 {
		var minted []string
		for k, run := range rep.Runs {
			if run.Status != http.StatusOK {
				return fmt.Errorf("run %d: status %d", k, run.Status)
			}
			var resp schema.RunResponse
			if err := openBody([]byte(run.Body), &resp); err != nil {
				return fmt.Errorf("run %d: %w", k, err)
			}
			if err := sameRun(resp, r.refs[cellFor(req, batchSystems[k])], false); err != nil {
				return fmt.Errorf("run %d: %w", k, err)
			}
			minted = append(minted, resp.Checkpoints...)
		}
		r.mu.Lock()
		r.batches[i] = &rep
		r.minted = append(r.minted, minted...)
		r.mu.Unlock()
		return nil
	}
	r.mu.Lock()
	orig := r.batches[req.replay]
	r.mu.Unlock()
	if orig == nil {
		return fmt.Errorf("replays batch %d, which failed", req.replay)
	}
	if rep.Skipped != len(rep.Runs) {
		return fmt.Errorf("replay skipped %d of %d runs", rep.Skipped, len(rep.Runs))
	}
	for k, run := range rep.Runs {
		if !run.Skipped || run.Status != orig.Runs[k].Status || run.Body != orig.Runs[k].Body {
			return fmt.Errorf("replayed run %d differs from the original", k)
		}
	}
	return nil
}

// stackLayers computes the serve stack's per-layer metrics: span
// statistics of the measured phases, /metrics deltas over them, and the
// store's own put/get times on the artifacts this run minted.
func (r *serveRun) stackLayers(before, after fleetMetrics, from, openEnd time.Time, open, measured []outcome) ([]metricValue, error) {
	n := float64(len(measured))
	doc := r.env.tr.doc(r.spec.name)
	tree := newSpanTree(doc.Spans)
	byName := make(map[string][]float64)
	var residual, gwSelf, connWait []float64
	for _, sp := range doc.Spans {
		if sp.StartUS < from.UnixMicro() {
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.DurUS)/1e3)
		// Only the open loop can have more requests due than the
		// generator has connections.
		if sp.Name == "conn-wait" && sp.StartUS < openEnd.UnixMicro() {
			connWait = append(connWait, float64(sp.DurUS)/1e3)
		}
		switch sp.Name {
		case "service":
			stage := func(c schema.Span) bool {
				return c.Name == "queue-wait" || c.Name == "compile" || c.Name == "execute" || c.Name == "batch-run"
			}
			residual = append(residual, float64(sp.DurUS-tree.covered(sp, stage))/1e3)
		case "gateway":
			gwSelf = append(gwSelf, float64(tree.self(sp))/1e3)
		}
	}
	var out []metricValue
	dist := func(name string, xs []float64, withTail bool) {
		out = append(out, metricValue{Name: name + "_p50_ms", Unit: "ms", Value: median(xs), N: len(xs)})
		if p, v, ok := tail(xs); ok && withTail {
			out = append(out, metricValue{Name: fmt.Sprintf("%s_p%g_ms", name, p), Unit: "ms", Value: v, N: len(xs)})
		}
	}
	dist("service.queue_wait", byName["queue-wait"], true)
	dist("service.compile", byName["compile"], false)
	dist("service.execute", byName["execute"], true)
	dist("service.residual", residual, false)
	dist("gateway.self", gwSelf, true)
	if p, v, ok := tail(connWait); ok {
		out = append(out, metricValue{Name: fmt.Sprintf("loadgen.conn_wait_p%g_ms", p), Unit: "ms", Value: v, N: len(connWait)})
	}

	var hits, lookups, imgEntries, idemEntries, puts, gets, logBytes, pushes float64
	for b := range after.backends {
		a, z := after.backends[b], before.backends[b]
		hits += float64(a.ImageCache.Hits - z.ImageCache.Hits)
		lookups += float64(a.ImageCache.Hits + a.ImageCache.Misses - z.ImageCache.Hits - z.ImageCache.Misses)
		imgEntries += float64(a.ImageCache.Entries)
		idemEntries += float64(a.Idempotency.Entries)
		if a.Store != nil && z.Store != nil {
			puts += float64(a.Store.Puts - z.Store.Puts)
			gets += float64(a.Store.Gets - z.Store.Gets)
			logBytes += float64(a.Store.LogBytes - z.Store.LogBytes)
		}
		if a.Replication != nil {
			pushes += float64(a.Replication.Pushes)
			if z.Replication != nil {
				pushes -= float64(z.Replication.Pushes)
			}
		}
	}
	attempts := 0
	for _, o := range measured {
		attempts += o.Attempts
	}
	count := func(name, unit string, v float64) {
		out = append(out, metricValue{Name: name, Unit: unit, Value: v, N: len(measured)})
	}
	count("service.image_cache_hit_pct", "%", 100*hits/max(lookups, 1))
	count("service.image_cache_entries", "count", imgEntries)
	count("service.idem_entries", "count", idemEntries)
	count("gateway.failovers", "count", float64(after.gateway.Failovers-before.gateway.Failovers))
	count("gateway.pin_hits", "count", float64(after.gateway.Idempotency.Hits-before.gateway.Idempotency.Hits))
	count("client.attempts_per_req", "count", float64(attempts)/n)
	if !r.spec.durable {
		return out, nil
	}
	count("store.puts_per_req", "count", puts/n)
	count("store.gets_per_req", "count", gets/n)
	count("store.bytes_per_req", "B", logBytes/n)
	count("replication.pushes_per_req", "count", pushes/n)
	dist("replication.push", byName["replication.push"], false)
	var fresh, replays []float64
	for i, o := range open {
		if !o.OK {
			continue
		}
		if r.stream[r.openFrom+i].replay >= 0 {
			replays = append(replays, ms(o.Latency))
		} else {
			fresh = append(fresh, ms(o.Latency))
		}
	}
	out = append(out,
		metricValue{Name: "batch.new_p50_ms", Unit: "ms", Value: median(fresh), N: len(fresh)},
		metricValue{Name: "batch.replay_p50_ms", Unit: "ms", Value: median(replays), N: len(replays)})
	storePuts, storeGets, err := r.storeTimings()
	dist("store.put", storePuts, false)
	dist("store.get", storeGets, false)
	return out, err
}

// storeTimings times store.Put and store.Get on a fresh store with the
// checkpoint bodies this run minted, fetched back through the gateway.
func (r *serveRun) storeTimings() (puts, gets []float64, err error) {
	r.mu.Lock()
	digests := append([]string(nil), r.minted...)
	r.mu.Unlock()
	sort.Strings(digests)
	if len(digests) > 64 {
		digests = digests[:64]
	}
	st, err := store.Open(filepath.Join(r.env.dir, "timing-store"))
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	for _, d := range digests {
		resp, err := http.Get(r.fleet.url + "/v1/store/roload-checkpoint/" + d)
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if _, err := st.Put(schema.CheckpointV1, d, body); err != nil {
			return nil, nil, err
		}
		puts = append(puts, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := st.Get(schema.CheckpointV1, d); err != nil {
			return nil, nil, err
		}
		gets = append(gets, ms(time.Since(t0)))
	}
	return puts, gets, nil
}
