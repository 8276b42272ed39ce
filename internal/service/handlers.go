// The roload-serve/v1 endpoint handlers. Each handler validates,
// takes a worker slot, executes under the request's deadline-bounded
// context, and answers with an Envelope-wrapped payload. The execution
// paths are exactly the CLI tools' (core.CompileText, core.RunWith,
// attack.RenderMatrix, eval.Runner.Experiment) so responses are
// byte-identical to the equivalent CLI invocations.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"roload/internal/asm"
	"roload/internal/attack"
	"roload/internal/cli"
	"roload/internal/core"
	"roload/internal/eval"
	"roload/internal/kernel"
	"roload/internal/redundant"
	"roload/internal/schema"
	"roload/internal/store"
	"roload/internal/telemetry"
)

// maxReplicas caps RunRequest.Redundant: each replica is a full
// simulated machine, so the cap bounds one request's cost multiplier.
const maxReplicas = 7

// snapshot packages a run result as a schema-tagged metrics document
// (the same document roload-run -metrics writes).
func snapshot(res kernel.RunResult, sys core.SystemKind) *schema.Snapshot {
	snap := res.Snapshot(sys.String())
	snap.Schema = schema.MetricsV1
	return &snap
}

// runError maps an execution error to the API's error vocabulary:
// cancellation → 504 with the partial snapshot, step-budget exhaustion
// → 422 with the partial snapshot, anything else → 500.
func runError(err error, res kernel.RunResult, sys core.SystemKind) *apiError {
	var canceled *kernel.CanceledError
	if errors.As(err, &canceled) {
		return timeoutError(err, snapshot(res, sys))
	}
	var limit *kernel.StepLimitError
	if errors.As(err, &limit) {
		return &apiError{http.StatusUnprocessableEntity, schema.ErrorResponse{
			Error: err.Error(), Kind: "steplimit", Metrics: snapshot(res, sys)}}
	}
	return internalError(err)
}

// runSpec is one fully validated run: the request, the parsed knobs,
// and (for store-backed resumes) the checkpoint digest. parseRunSpec
// produces it, buildImage compiles (or fetches) its image, and
// executeSpec runs it — POST /v1/run, POST /v1/runs and every run of a
// POST /v1/batch all flow through the same three stages, which is what
// makes their response bodies byte-identical.
type runSpec struct {
	req      schema.RunRequest
	sys      core.SystemKind
	h        core.Hardening
	engine   core.Engine
	maxSteps uint64
	// resume is the stored checkpoint digest of a "store://<digest>"
	// resume ("" = fresh run).
	resume string
	// peers are the replica peers the gateway named for this request
	// (Roload-Store-Peers): where artifact writes push to, and where a
	// local store miss fetches from.
	peers []string
}

// parseRunSpec validates one run request. The checks run in a fixed
// order and the first failure wins, so error messages are stable
// across the single-run and batch surfaces.
func (s *Server) parseRunSpec(req schema.RunRequest) (runSpec, *apiError) {
	spec := runSpec{req: req}
	apiErr := checkSchema(req.Schema)
	if apiErr == nil && req.ImageDigest != "" {
		switch {
		case s.store == nil:
			apiErr = validationError("image_digest requires a server started with -store")
		case req.Source != "" || req.Asm || req.Harden != "" || req.Optimize:
			apiErr = validationError("image_digest cannot be combined with source, asm, harden or optimize")
		}
	}
	if apiErr == nil && req.Source == "" && req.ImageDigest == "" {
		apiErr = validationError("source is required")
	}
	spec.sys = core.SysFull
	if apiErr == nil && req.System != "" {
		var err error
		if spec.sys, err = cli.ParseSystem(req.System); err != nil {
			apiErr = validationError(err.Error())
		}
	}
	spec.h = core.HardenNone
	if apiErr == nil && req.Harden != "" {
		var err error
		if spec.h, err = cli.ParseHardening(req.Harden); err != nil {
			apiErr = validationError(err.Error())
		}
	}
	if apiErr == nil && req.Asm && (spec.h != core.HardenNone || req.Optimize) {
		apiErr = validationError("asm input cannot be combined with harden or optimize")
	}
	spec.engine = core.EngineBlocks
	if apiErr == nil && req.Engine != "" {
		var err error
		if spec.engine, err = cli.ParseEngine(req.Engine); err != nil {
			// Engine is pure host-side tuning, so a bad value is a
			// semantic error (422), not a malformed request.
			apiErr = &apiError{http.StatusUnprocessableEntity,
				schema.ErrorResponse{Error: err.Error(), Kind: "validation"}}
		}
	}
	spec.maxSteps = s.cfg.MaxSteps
	if apiErr == nil && req.MaxSteps != 0 {
		if req.MaxSteps > s.cfg.MaxSteps {
			apiErr = validationError(fmt.Sprintf("max_steps %d exceeds the server cap %d", req.MaxSteps, s.cfg.MaxSteps))
		} else {
			spec.maxSteps = req.MaxSteps
		}
	}
	if apiErr == nil && req.MemBytes > s.cfg.MaxMemBytes {
		apiErr = validationError(fmt.Sprintf("mem_bytes %d exceeds the server cap %d", req.MemBytes, s.cfg.MaxMemBytes))
	}
	if apiErr == nil && req.FaultCount < 0 {
		apiErr = validationError("fault_count must be non-negative")
	}
	if apiErr == nil && req.FaultCount > 0 && !s.cfg.Chaos {
		apiErr = validationError("fault injection requires a server started with -chaos")
	}
	if apiErr == nil && req.Priority != "" && req.Priority != "normal" && req.Priority != "low" {
		apiErr = validationError(fmt.Sprintf("unknown priority %q (known: normal, low)", req.Priority))
	}
	if apiErr == nil && req.Redundant != 0 {
		switch {
		case req.Redundant < 3 || req.Redundant%2 == 0:
			apiErr = validationError("redundant must be odd and >= 3")
		case req.Redundant > maxReplicas:
			apiErr = validationError(fmt.Sprintf("redundant %d exceeds the server cap %d", req.Redundant, maxReplicas))
		case req.FaultReplica < 0 || req.FaultReplica >= req.Redundant:
			apiErr = validationError(fmt.Sprintf("fault_replica %d out of range [0,%d)", req.FaultReplica, req.Redundant))
		}
	}
	if apiErr == nil && req.Redundant == 0 && (req.Heal || req.SyncEvery != 0 || req.FaultReplica != 0) {
		apiErr = validationError("heal, sync_every and fault_replica require redundant")
	}
	if apiErr == nil && req.CheckpointEvery != 0 {
		switch {
		case s.store == nil:
			apiErr = validationError("checkpoint_every requires a server started with -store")
		case req.Redundant != 0:
			apiErr = validationError("checkpoint_every cannot be combined with redundant")
		}
	}
	if apiErr == nil && req.Resume != "" {
		digest, ok := strings.CutPrefix(req.Resume, "store://")
		switch {
		case !ok || digest == "":
			apiErr = validationError(`resume must name a stored checkpoint as "store://<digest>"`)
		case s.store == nil:
			apiErr = validationError("resume requires a server started with -store")
		case req.Redundant != 0 || req.FaultCount != 0:
			apiErr = validationError("resume cannot be combined with redundant or fault_count")
		default:
			spec.resume = digest
		}
	}
	if apiErr != nil {
		return runSpec{}, apiErr
	}
	return spec, nil
}

// buildImage produces the spec's executable image: assembled from
// text, compiled through the optimizer, fetched from the artifact
// store, or taken from the shared image cache. compiled reports
// whether a source compilation actually ran — the count behind the
// batch report's compile-once contract.
func (s *Server) buildImage(spec runSpec) (img *asm.Image, compiled bool, apiErr *apiError) {
	req := spec.req
	switch {
	case req.ImageDigest != "":
		raw, err := s.storeGetOrFetch(s.baseCtx, spec.peers, schema.ImageV1, req.ImageDigest)
		if err != nil {
			return nil, false, notFoundError(fmt.Sprintf("image %s is not in the store", req.ImageDigest))
		}
		var doc schema.ImageDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, false, internalError(fmt.Errorf("stored image %s: %w", req.ImageDigest, err))
		}
		if img, err = core.DecodeImage(doc); err != nil {
			return nil, false, internalError(err)
		}
		return img, false, nil
	case req.Asm:
		var err error
		if img, err = asm.Assemble(req.Source, asm.DefaultOptions()); err != nil {
			return nil, false, compileError(err)
		}
		return img, true, nil
	case req.Optimize:
		// The optimizer changes the unit in place, so optimized builds
		// bypass the shared cache (which is keyed on source alone).
		text, err := core.CompileText(req.Source, core.CompileOptions{Harden: spec.h, Optimize: true})
		if err == nil {
			img, err = asm.Assemble(text, asm.DefaultOptions())
		}
		if err != nil {
			return nil, false, compileError(err)
		}
		return img, true, nil
	default:
		// The shared image cache: concurrent identical requests (same
		// source, same scheme) compile once and share the image.
		img, hit, err := s.runner.CachedImage(req.Source, spec.h)
		if err != nil {
			return nil, false, compileError(err)
		}
		return img, !hit, nil
	}
}

// storeRunOptions wires a run's checkpoint/resume knobs to the
// artifact store: a resume fetches its stored checkpoint, and the
// checkpoint callback persists each snapshot under its state digest
// (pinning the newest so GC always keeps the most recent resume point
// of the run), records the digest, and streams a checkpoint event.
func (s *Server) storeRunOptions(ctx context.Context, opts core.RunOptions, spec runSpec, cks *[]string) (core.RunOptions, *apiError) {
	if spec.resume != "" {
		// The local store first, then the gateway-named replica peers: a
		// resume that lands on a backend that never saw the checkpoint
		// (its owner was killed) pulls the bytes — digest-verified — from
		// a surviving replica.
		raw, err := s.storeGetOrFetch(ctx, spec.peers, schema.CheckpointV1, spec.resume)
		if err != nil {
			return opts, notFoundError(fmt.Sprintf("checkpoint %s is not in the store", spec.resume))
		}
		var ck schema.Checkpoint
		if err := json.Unmarshal(raw, &ck); err != nil {
			return opts, internalError(fmt.Errorf("stored checkpoint %s: %w", spec.resume, err))
		}
		opts.Resume = &ck
	}
	if spec.req.CheckpointEvery > 0 {
		opts.CheckpointEvery = spec.req.CheckpointEvery
		sink := telemetry.SinkFromContext(ctx)
		var prev string
		opts.Checkpoint = func(ck schema.Checkpoint) error {
			raw, err := json.Marshal(ck)
			if err != nil {
				return err
			}
			digest := ck.StateDigest()
			if _, err := s.store.Put(schema.CheckpointV1, digest, raw); err != nil {
				return err
			}
			if err := s.store.Pin(digest); err != nil {
				return err
			}
			if prev != "" {
				s.store.Unpin(prev) //nolint:errcheck // best effort: over-pinning is safe
			}
			prev = digest
			*cks = append(*cks, digest)
			// Write-through replication: the checkpoint is only durable
			// against the loss of this backend once the replica peers
			// hold it too.
			s.replicateToPeers(spec.peers, schema.CheckpointV1, digest, raw)
			if sink != nil {
				sink(schema.RunEvent{Kind: schema.EventCheckpoint, Instret: ck.Instret, Digest: digest})
			}
			return nil
		}
	}
	return opts, nil
}

// executeSpec runs one validated spec on img under ctx — which carries
// the trace, the parent span and the event sink — and returns either
// the success payload or the apiError the equivalent individual
// request would answer. It is the single execution path behind POST
// /v1/run, POST /v1/runs and every run of a batch.
func (s *Server) executeSpec(ctx context.Context, img *asm.Image, spec runSpec) (schema.RunResponse, *apiError) {
	req := spec.req
	sys, engine, maxSteps := spec.sys, spec.engine, spec.maxSteps
	var res kernel.RunResult
	var ftrace *schema.FaultTrace
	var heal *schema.HealReport
	var cks []string
	var err error
	runStart := time.Now()
	s.noteEngineRun(cli.EngineName(engine))
	switch {
	case req.Redundant > 0:
		var plan *schema.FaultPlan
		if req.FaultCount > 0 {
			// The fault-plan profiling run gets the sink stripped: its
			// retire counts would interleave out of order with the real
			// run's stream.
			p, perr := redundant.Plan(telemetry.WithSink(ctx, nil), img, sys, req.FaultSeed, req.FaultCount, maxSteps, req.MemBytes)
			if perr != nil {
				return schema.RunResponse{}, runError(perr, res, sys)
			}
			plan = &p
		}
		engines := make([]core.Engine, req.Redundant)
		for i := range engines {
			engines[i] = engine
		}
		var out redundant.Result
		out, err = redundant.Run(ctx, img, sys, redundant.Options{
			Engines:      engines,
			Replicas:     req.Redundant,
			SyncEvery:    req.SyncEvery,
			Heal:         req.Heal,
			MaxSteps:     maxSteps,
			MemBytes:     req.MemBytes,
			Fault:        plan,
			FaultReplica: req.FaultReplica,
		})
		res, ftrace, heal = out.Run, out.Trace, &out.Report
	case req.FaultCount > 0:
		res, ftrace, err = runFaulted(ctx, img, sys, engine, req.FaultSeed, uint64(req.FaultCount), maxSteps, req.MemBytes)
	default:
		opts := core.RunOptions{
			MaxSteps: maxSteps,
			MemBytes: req.MemBytes,
		}
		if req.CheckpointEvery > 0 || spec.resume != "" {
			var apiErr *apiError
			if opts, apiErr = s.storeRunOptions(ctx, opts, spec, &cks); apiErr != nil {
				return schema.RunResponse{}, apiErr
			}
		}
		res, _, err = core.RunWith(ctx, img, sys, engine.Options(opts))
	}
	s.runDurationUS.Observe(uint64(time.Since(runStart).Microseconds()))
	if err != nil {
		var split *redundant.DivergedError
		if errors.As(err, &split) {
			return schema.RunResponse{}, &apiError{http.StatusConflict, schema.ErrorResponse{
				Error: err.Error(), Kind: "diverged", Metrics: snapshot(res, sys)}}
		}
		var mismatch *kernel.CheckpointMismatchError
		if errors.As(err, &mismatch) {
			// The stored checkpoint pins a different image (or schema):
			// a conflict between the named artifacts, not a bad request.
			return schema.RunResponse{}, &apiError{http.StatusConflict, schema.ErrorResponse{
				Error: err.Error(), Kind: "mismatch"}}
		}
		apiErr := runError(err, res, sys)
		// A step-limit partial of a checkpointing run still names the
		// digests stored so far, so the client can resume from the last.
		apiErr.body.Checkpoints = cks
		return schema.RunResponse{}, apiErr
	}
	s.noteKeyCheck(spec.h.String(), res.ROLoadViolation)

	resp := schema.RunResponse{
		Stdout:          string(res.Stdout),
		Exited:          res.Exited,
		ExitCode:        res.Code,
		ROLoadViolation: res.ROLoadViolation,
		Metrics:         snapshot(res, sys),
	}
	if res.Exited {
		resp.ExitStatus = res.Code & 0xff
	} else {
		resp.Signal = res.Signal.String()
		resp.ExitStatus = 128 + int(res.Signal)
	}
	for _, rec := range res.Audit {
		resp.AuditText = append(resp.AuditText, rec.String())
	}
	resp.FaultTrace = ftrace
	resp.Heal = heal
	resp.Checkpoints = cks
	if heal != nil && s.store != nil {
		// Persist the heal report (best effort: the run already
		// succeeded) so it survives a restart, and replicate it so it
		// survives this backend.
		if raw, merr := json.Marshal(heal); merr == nil {
			digest := store.Digest(raw)
			if _, perr := s.store.Put(schema.HealV1, digest, raw); perr == nil {
				s.replicateToPeers(spec.peers, schema.HealV1, digest, raw)
			}
		}
	}
	return resp, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serveRun(w, r, "run", false)
}

// handleRunCreate is POST /v1/runs, the resource-oriented twin of POST
// /v1/run: the same request body and the same response envelope, but
// answered 201 with a Location naming the stored result, which GET
// /v1/runs/{id} then replays.
func (s *Server) handleRunCreate(w http.ResponseWriter, r *http.Request) {
	s.serveRun(w, r, "runs", true)
}

// serveRun is the shared single-run request cycle: mint identity,
// validate, queue, compile, execute, render, seal telemetry. The
// compatibility endpoint (/v1/run) and the resource endpoint
// (/v1/runs) differ only in the success status and the Location
// header — the bodies are byte-identical.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, endpoint string, created bool) {
	// Run identity comes first — before decoding, so even a malformed
	// request terminates the event stream a client may already be
	// subscribed to. A valid Roload-Trace header names the run (that is
	// how a streaming client subscribes before posting); otherwise the
	// server mints the id. The id travels back in the Roload-Trace
	// response header, never in a success body, so responses stay
	// byte-identical to the CLI tools' output.
	runID := r.Header.Get("Roload-Trace")
	if !telemetry.ValidRunID(runID) {
		runID = telemetry.NewRunID()
	}
	runInfoFrom(r.Context()).set(runID)
	trace := telemetry.NewTrace(runID, "s")
	reqSpan := trace.Start("request", r.Header.Get("Roload-Trace-Parent"))
	reqSpan.SetAttr("endpoint", endpoint)
	sink := s.broker.Sink(runID)

	// finishRun seals the run's telemetry: the request span ends, the
	// span document lands in the trace registry, the rendered answer
	// lands in the result registry (for GET /v1/runs/{id}), and the
	// terminal event — carrying the exact response bytes — closes the
	// event stream.
	finishRun := func(status int, body []byte) {
		reqSpan.SetAttrUint("status", uint64(status))
		reqSpan.End()
		s.traces.Put(runID, trace.Doc())
		if body != nil {
			s.results.Put(runID, storedResult{status, body})
		}
		s.broker.Finish(runID, schema.RunEvent{
			Kind: schema.EventResult, Status: status, Result: string(body)})
		s.runLog(r.Context(), "run finished", runID, "status", status)
	}
	// fail answers an error envelope (stamped with the run id — error
	// bodies have no CLI twin, so inline identity is free) and seals
	// the run.
	fail := func(apiErr *apiError) {
		apiErr.body.RunID = runID
		body, err := renderEnvelope(apiErr.body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			finishRun(http.StatusInternalServerError, nil)
			return
		}
		if apiErr.body.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.body.RetryAfterSec))
		}
		w.Header().Set("Roload-Trace", runID)
		writeRendered(w, apiErr.status, body)
		finishRun(apiErr.status, body)
	}

	var req schema.RunRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		fail(apiErr)
		return
	}
	spec, apiErr := s.parseRunSpec(req)
	if apiErr != nil {
		fail(apiErr)
		return
	}
	spec.peers = parsePeers(r.Header.Get(storePeersHeader))
	s.runLog(r.Context(), "run accepted", runID,
		"system", spec.sys.String(), "harden", spec.h.String(), "redundant", req.Redundant)

	if req.Priority == "low" {
		if apiErr := s.shedLowPriority(); apiErr != nil {
			s.runLog(r.Context(), "run shed", runID, "kind", apiErr.body.Kind)
			fail(apiErr)
			return
		}
	}
	s.runLog(r.Context(), "run queued", runID, "queued", s.queued.Load())
	qSpan := reqSpan.Child("queue-wait")
	qStart := time.Now()
	acqErr := s.acquire(r.Context())
	qSpan.End()
	s.queueWaitUS.Observe(uint64(time.Since(qStart).Microseconds()))
	if acqErr != nil {
		s.runLog(r.Context(), "run shed", runID, "kind", acqErr.body.Kind)
		fail(acqErr)
		return
	}
	defer s.release()
	s.runLog(r.Context(), "run started", runID)

	if s.cfg.Chaos {
		delay, doPanic, doError := s.chaos.takeRun()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}
		if doPanic {
			panic("chaos: injected worker panic")
		}
		if doError {
			fail(chaosError())
			return
		}
	}

	cSpan := reqSpan.Child("compile")
	img, _, apiErr := s.buildImage(spec)
	cSpan.End()
	if apiErr != nil {
		fail(apiErr)
		return
	}

	ctx, cancel := s.runCtx(r, req.TimeoutMS)
	defer cancel()
	// The execution context carries the trace (execute/checkpoint/vote/
	// heal spans parent under the request span) and the event sink.
	ctx = telemetry.WithTrace(ctx, trace)
	ctx = telemetry.WithSpan(ctx, reqSpan)
	execCtx := telemetry.WithSink(ctx, sink)
	resp, apiErr := s.executeSpec(execCtx, img, spec)
	if apiErr != nil {
		fail(apiErr)
		return
	}
	body, rerr := renderEnvelope(resp)
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusInternalServerError)
		finishRun(http.StatusInternalServerError, nil)
		return
	}
	status := http.StatusOK
	if created {
		w.Header().Set("Location", "/v1/runs/"+runID)
		status = http.StatusCreated
	}
	w.Header().Set("Roload-Trace", runID)
	writeRendered(w, status, body)
	finishRun(status, body)
}

// handleRunGet is GET /v1/runs/{id}: the stored rendered result of a
// completed run, byte-identical to the synchronous answer. A 201
// creation replays as a plain 200 representation.
func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidRunID(id) {
		validationError(fmt.Sprintf("invalid run id %q", id)).write(w)
		return
	}
	runInfoFrom(r.Context()).set(id)
	res, ok := s.results.Get(id)
	if !ok {
		apiErr := notFoundError(fmt.Sprintf("no stored result for run %q (results are retained for the last %d runs)", id, s.results.Cap()))
		apiErr.body.RunID = id
		apiErr.write(w)
		return
	}
	status := res.status
	if status == http.StatusCreated {
		status = http.StatusOK
	}
	w.Header().Set("Roload-Trace", id)
	writeRendered(w, status, res.body)
}

// handleBatch is POST /v1/batch: many run specs against one compile
// group. The image is built exactly once (or fetched from the store,
// or hit in the cache: then zero compiles), the runs are scheduled
// across the worker pool, their lifecycle streams through the
// batch-scoped event channel, and the answer is a roload-batch/v1
// report whose per-run bodies are byte-identical to the equivalent
// individual POST /v1/run answers.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	batchID := r.Header.Get("Roload-Trace")
	if !telemetry.ValidRunID(batchID) {
		batchID = telemetry.NewRunID()
	}
	runInfoFrom(r.Context()).set(batchID)
	trace := telemetry.NewTrace(batchID, "s")
	reqSpan := trace.Start("request", r.Header.Get("Roload-Trace-Parent"))
	reqSpan.SetAttr("endpoint", "batch")
	sink := s.broker.Sink(batchID)

	finishBatch := func(status int, body []byte) {
		reqSpan.SetAttrUint("status", uint64(status))
		reqSpan.End()
		s.traces.Put(batchID, trace.Doc())
		if body != nil {
			s.results.Put(batchID, storedResult{status, body})
		}
		s.broker.Finish(batchID, schema.RunEvent{
			Kind: schema.EventResult, Status: status, Result: string(body)})
		s.runLog(r.Context(), "batch finished", batchID, "status", status)
	}
	fail := func(apiErr *apiError) {
		apiErr.body.RunID = batchID
		body, err := renderEnvelope(apiErr.body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			finishBatch(http.StatusInternalServerError, nil)
			return
		}
		if apiErr.body.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.body.RetryAfterSec))
		}
		w.Header().Set("Roload-Trace", batchID)
		writeRendered(w, apiErr.status, body)
		finishBatch(apiErr.status, body)
	}

	var req schema.BatchRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		fail(apiErr)
		return
	}
	apiErr := checkSchema(req.Schema)
	if apiErr == nil && len(req.Runs) == 0 {
		apiErr = validationError("runs must name at least one run")
	}
	if apiErr == nil && len(req.Runs) > s.cfg.MaxBatchRuns {
		apiErr = validationError(fmt.Sprintf("batch of %d runs exceeds the server cap %d", len(req.Runs), s.cfg.MaxBatchRuns))
	}
	if apiErr != nil {
		fail(apiErr)
		return
	}
	// The compile group validates once on its own (clean message), then
	// every run spec through the exact single-run validator — same
	// checks, same order, same wording as POST /v1/run.
	if _, apiErr := s.parseRunSpec(schema.RunRequest{
		Source: req.Source, Asm: req.Asm, Harden: req.Harden,
		Optimize: req.Optimize, ImageDigest: req.ImageDigest,
		Priority: req.Priority,
	}); apiErr != nil {
		fail(apiErr)
		return
	}
	specs := make([]runSpec, len(req.Runs))
	for i, rs := range req.Runs {
		spec, apiErr := s.parseRunSpec(schema.RunRequest{
			Source: req.Source, Asm: req.Asm, Harden: req.Harden,
			Optimize: req.Optimize, ImageDigest: req.ImageDigest,
			System: rs.System, Engine: rs.Engine,
			MaxSteps: rs.MaxSteps, MemBytes: rs.MemBytes,
			FaultCount: rs.FaultCount, FaultSeed: rs.FaultSeed,
			Redundant: rs.Redundant, Heal: rs.Heal,
			SyncEvery: rs.SyncEvery, FaultReplica: rs.FaultReplica,
			CheckpointEvery: rs.CheckpointEvery, Resume: rs.Resume,
			TimeoutMS: req.TimeoutMS, Priority: req.Priority,
		})
		if apiErr != nil {
			apiErr.body.Error = fmt.Sprintf("run %d: %s", i, apiErr.body.Error)
			fail(apiErr)
			return
		}
		specs[i] = spec
	}
	peers := parsePeers(r.Header.Get(storePeersHeader))
	for i := range specs {
		specs[i].peers = peers
	}
	s.runLog(r.Context(), "batch accepted", batchID, "runs", len(specs))

	if req.Priority == "low" {
		if apiErr := s.shedLowPriority(); apiErr != nil {
			s.runLog(r.Context(), "batch shed", batchID, "kind", apiErr.body.Kind)
			fail(apiErr)
			return
		}
	}
	s.runLog(r.Context(), "batch queued", batchID, "queued", s.queued.Load())
	qSpan := reqSpan.Child("queue-wait")
	qStart := time.Now()
	acqErr := s.acquire(r.Context())
	qSpan.End()
	s.queueWaitUS.Observe(uint64(time.Since(qStart).Microseconds()))
	if acqErr != nil {
		s.runLog(r.Context(), "batch shed", batchID, "kind", acqErr.body.Kind)
		fail(acqErr)
		return
	}
	defer s.release()
	s.runLog(r.Context(), "batch started", batchID)

	if s.cfg.Chaos {
		delay, doPanic, doError := s.chaos.takeRun()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}
		if doPanic {
			panic("chaos: injected worker panic")
		}
		if doError {
			fail(chaosError())
			return
		}
	}

	// One compile for the whole batch: the compile group is shared, so
	// any spec names the same image.
	cSpan := reqSpan.Child("compile")
	img, compiled, apiErr := s.buildImage(specs[0])
	cSpan.End()
	if apiErr != nil {
		fail(apiErr)
		return
	}
	compiles := 0
	if compiled {
		compiles = 1
	}
	imageDigest := kernel.ImageDigest(img)

	ctx, cancel := s.runCtx(r, req.TimeoutMS)
	defer cancel()
	ctx = telemetry.WithTrace(ctx, trace)

	// Resumable batches: a run's identity (batch id, index, image, spec)
	// addresses its stored roload-runresult/v1 artifact. A prior POST of
	// the same batch id that completed a run left that artifact behind —
	// here and/or on the replica peers — so this POST replays it
	// byte-identically instead of re-executing. The skeletons double as
	// the addresses fresh results are persisted under.
	prior := make([]*schema.RunResultDoc, len(specs))
	skel := make([]*schema.RunResultDoc, len(specs))
	if s.store != nil {
		for i := range specs {
			canon, merr := json.Marshal(req.Runs[i])
			if merr != nil {
				continue
			}
			skel[i] = &schema.RunResultDoc{
				Schema: schema.RunResultV1, BatchID: batchID, Index: i,
				RunID:       fmt.Sprintf("%s.%d", batchID, i+1),
				ImageDigest: imageDigest, Spec: string(canon),
			}
			key := skel[i].KeyDigest()
			raw, gerr := s.storeGetOrFetch(ctx, peers, schema.RunResultV1, key)
			if gerr != nil {
				continue
			}
			var doc schema.RunResultDoc
			if json.Unmarshal(raw, &doc) == nil && doc.Validate() == nil && doc.KeyDigest() == key {
				prior[i] = &doc
			}
		}
	}

	// Fan the runs out across the worker pool. Every run gets its own
	// child span, a batch-scoped run id ("<batch>.<n>"), and a sink
	// that stamps its 1-based index into each event.
	outcomes := make([]schema.BatchRunOutcome, len(specs))
	eval.ForEach(s.cfg.Workers, len(specs), func(i int) error { //nolint:errcheck // fn never errors
		runID := fmt.Sprintf("%s.%d", batchID, i+1)
		runSpan := reqSpan.Child("batch-run")
		runSpan.SetAttrUint("run", uint64(i+1))
		runSink := telemetry.Sink(func(ev schema.RunEvent) {
			ev.Run = i + 1
			sink(ev)
		})
		runSink(schema.RunEvent{Kind: schema.EventRunStart})
		if doc := prior[i]; doc != nil {
			// Replay, don't re-execute: the stored result carries the
			// exact rendered body of the original run, so the outcome —
			// and the event stream's terminal event — is byte-identical.
			runSpan.SetAttr("skipped", "true")
			runSpan.SetAttrUint("status", uint64(doc.Status))
			runSpan.End()
			runSink(schema.RunEvent{Kind: schema.EventRunResult, Status: doc.Status, Result: doc.Body})
			s.results.Put(runID, storedResult{doc.Status, []byte(doc.Body)})
			outcomes[i] = schema.BatchRunOutcome{
				Index: i, RunID: runID, Status: doc.Status, Body: doc.Body, Skipped: true}
			return nil
		}
		execCtx := telemetry.WithSink(telemetry.WithSpan(ctx, runSpan), runSink)
		status := http.StatusOK
		var body []byte
		resp, runErr := s.executeSpec(execCtx, img, specs[i])
		if runErr != nil {
			runErr.body.RunID = runID
			status = runErr.status
			body, _ = renderEnvelope(runErr.body)
		} else {
			body, _ = renderEnvelope(resp)
		}
		runSpan.SetAttrUint("status", uint64(status))
		runSpan.End()
		runSink(schema.RunEvent{Kind: schema.EventRunResult, Status: status, Result: string(body)})
		s.results.Put(runID, storedResult{status, body})
		outcomes[i] = schema.BatchRunOutcome{Index: i, RunID: runID, Status: status, Body: string(body)}
		// Persist conclusive successes as roload-runresult/v1 artifacts
		// (and replicate them): the next POST of this batch id skips
		// this run. Errors stay unpersisted — they should re-execute.
		if skel[i] != nil && status < 300 {
			doc := *skel[i]
			doc.Status, doc.Body = status, string(body)
			if raw, merr := json.Marshal(&doc); merr == nil {
				s.putReplicated(specs[i].peers, schema.RunResultV1, doc.KeyDigest(), raw) //nolint:errcheck // best effort: the run already answered
			}
		}
		return nil
	})

	skipped := 0
	for i := range outcomes {
		if outcomes[i].Skipped {
			skipped++
		}
	}
	report := schema.BatchReport{
		Schema:      schema.BatchV1,
		BatchID:     batchID,
		ImageDigest: imageDigest,
		Compiles:    compiles,
		Runs:        outcomes,
		Skipped:     skipped,
	}
	if s.store != nil {
		// Persist the report (best effort: the runs already completed)
		// so it survives a restart, and replicate it across the fleet.
		if raw, merr := json.Marshal(&report); merr == nil {
			s.putReplicated(peers, schema.BatchV1, store.Digest(raw), raw) //nolint:errcheck
		}
	}
	body, rerr := renderEnvelope(report)
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusInternalServerError)
		finishBatch(http.StatusInternalServerError, nil)
		return
	}
	w.Header().Set("Roload-Trace", batchID)
	writeRendered(w, http.StatusOK, body)
	finishBatch(http.StatusOK, body)
}

// handleImagePut is POST /v1/images (routed only with -store): compile
// or assemble once, persist the roload-image/v1 document under its
// kernel digest, and pin it — a checkpoint's resumability depends on
// its image surviving GC. Answers 201 on first store, 200 with
// Reused on a digest the store already held.
func (s *Server) handleImagePut(w http.ResponseWriter, r *http.Request) {
	var req schema.ImageRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	apiErr := checkSchema(req.Schema)
	if apiErr == nil && req.Source == "" {
		apiErr = validationError("source is required")
	}
	h := core.HardenNone
	if apiErr == nil && req.Harden != "" {
		var err error
		if h, err = cli.ParseHardening(req.Harden); err != nil {
			apiErr = validationError(err.Error())
		}
	}
	if apiErr == nil && req.Asm && (h != core.HardenNone || req.Optimize) {
		apiErr = validationError("asm input cannot be combined with harden or optimize")
	}
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	if apiErr := s.acquire(r.Context()); apiErr != nil {
		apiErr.write(w)
		return
	}
	defer s.release()
	img, _, apiErr := s.buildImage(runSpec{
		req: schema.RunRequest{Source: req.Source, Asm: req.Asm, Optimize: req.Optimize},
		h:   h,
	})
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	doc := core.EncodeImage(img)
	raw, err := json.Marshal(doc)
	if err != nil {
		internalError(err).write(w)
		return
	}
	added, err := s.store.Put(schema.ImageV1, doc.Digest, raw)
	if err != nil {
		internalError(err).write(w)
		return
	}
	if added {
		if err := s.store.Pin(doc.Digest); err != nil {
			internalError(err).write(w)
			return
		}
	}
	s.replicateToPeers(parsePeers(r.Header.Get(storePeersHeader)), schema.ImageV1, doc.Digest, raw)
	w.Header().Set("Location", "/v1/images/"+doc.Digest)
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	writeEnvelope(w, status, schema.ImageResponse{Digest: doc.Digest, Reused: !added})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req schema.CompileRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	apiErr := checkSchema(req.Schema)
	if apiErr == nil && req.Source == "" {
		apiErr = validationError("source is required")
	}
	h := core.HardenNone
	if apiErr == nil && req.Harden != "" {
		var err error
		if h, err = cli.ParseHardening(req.Harden); err != nil {
			apiErr = validationError(err.Error())
		}
	}
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	if apiErr := s.acquire(r.Context()); apiErr != nil {
		apiErr.write(w)
		return
	}
	defer s.release()
	text, err := core.CompileText(req.Source, core.CompileOptions{
		Harden:   h,
		Optimize: req.Optimize,
		Dump:     req.Dump,
		Compress: req.Compress,
	})
	if err != nil {
		compileError(err).write(w)
		return
	}
	writeEnvelope(w, http.StatusOK, schema.CompileResponse{Text: text})
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req schema.AttackRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	if apiErr := checkSchema(req.Schema); apiErr != nil {
		apiErr.write(w)
		return
	}
	scenarios := attack.AllScenarios()
	if req.Scenario != "" {
		var filtered []*attack.Scenario
		names := make([]string, 0, len(scenarios))
		for _, sc := range scenarios {
			names = append(names, sc.Name)
			if sc.Name == req.Scenario {
				filtered = append(filtered, sc)
			}
		}
		if len(filtered) == 0 {
			notFoundError(fmt.Sprintf("unknown scenario %q (known: %s)",
				req.Scenario, strings.Join(names, ", "))).write(w)
			return
		}
		scenarios = filtered
	}
	schemes := attack.MatrixSchemes
	if req.Harden != "" {
		h, err := cli.ParseHardening(req.Harden)
		if err != nil {
			validationError(err.Error()).write(w)
			return
		}
		schemes = []core.Hardening{h}
	}

	if apiErr := s.acquire(r.Context()); apiErr != nil {
		apiErr.write(w)
		return
	}
	defer s.release()
	ctx, cancel := s.runCtx(r, req.TimeoutMS)
	defer cancel()

	var buf bytes.Buffer
	results, bad, err := attack.RenderMatrix(ctx, &buf, scenarios, schemes, req.Verbose)
	if err != nil {
		var canceled *kernel.CanceledError
		if errors.As(err, &canceled) {
			timeoutError(err, nil).write(w)
			return
		}
		internalError(err).write(w)
		return
	}
	writeEnvelope(w, http.StatusOK, schema.AttackResponse{
		Text:       buf.String(),
		BadDefense: bad,
		Results:    attack.Entries(results, true),
	})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeEnvelope(w, http.StatusOK, schema.ExperimentsResponse{
		IDs:    eval.ExperimentIDs,
		Scales: []string{"ref", "test"},
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	known := false
	for _, want := range eval.ExperimentIDs {
		if id == want {
			known = true
			break
		}
	}
	if !known {
		notFoundError(fmt.Sprintf("unknown experiment %q (known: %s)",
			id, strings.Join(eval.ExperimentIDs, ", "))).write(w)
		return
	}
	var req schema.ExperimentRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	if apiErr := checkSchema(req.Schema); apiErr != nil {
		apiErr.write(w)
		return
	}
	// The service favours bounded request latency: test scale unless
	// ref is asked for explicitly.
	scale := eval.ScaleTest
	if req.Scale != "" {
		var err error
		if scale, err = eval.ParseScale(req.Scale); err != nil {
			validationError(err.Error()).write(w)
			return
		}
	}

	if apiErr := s.acquire(r.Context()); apiErr != nil {
		apiErr.write(w)
		return
	}
	defer s.release()
	ctx, cancel := s.runCtx(r, req.TimeoutMS)
	defer cancel()

	res, _, err := s.experiments.Do(ctx, expKey{id, scale}, func() (experiment, bool) {
		data, err := s.runner.Experiment(ctx, id, scale, s.cfg.Root)
		return experiment{data, err}, !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	})
	if err == nil {
		err = res.err
	}
	if err != nil {
		var canceled *kernel.CanceledError
		if errors.As(err, &canceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			timeoutError(err, nil).write(w)
			return
		}
		internalError(err).write(w)
		return
	}
	writeEnvelope(w, http.StatusOK, schema.ExperimentResponse{
		ID:    id,
		Scale: cli.ScaleName(scale),
		Data:  res.data,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued := int(s.queued.Load())
	resp := schema.HealthResponse{
		Status:     "ok",
		Workers:    s.cfg.Workers,
		InFlight:   int(s.inFlight.Load()),
		Queued:     queued,
		QueueDepth: queued,
		QueueCap:   s.cfg.Workers + s.cfg.Queue,
		Store:      "none",
		ChaosArmed: s.cfg.Chaos && s.chaos.armed(),
	}
	if s.store != nil {
		resp.Store = "attached"
		if err := s.store.Err(); err != nil {
			resp.Store = "error: " + err.Error()
		}
	}
	status := http.StatusOK
	if bad, retry := s.degraded(); bad {
		resp.Status = "degraded"
		resp.RetryAfterSec = retry
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		status = http.StatusServiceUnavailable
	}
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeEnvelope(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := schema.ServeMetrics{
		Workers:       s.cfg.Workers,
		InFlight:      int(s.inFlight.Load()),
		Queued:        int(s.queued.Load()),
		Draining:      s.draining.Load(),
		Endpoints:     make(map[string]schema.EndpointMetrics),
		ImageCache:    s.runner.ImageCache(),
		Experiments:   s.experiments.Metrics(),
		Idempotency:   s.idem.Metrics(),
		Shed:          s.shed.Load(),
		UptimeSec:     time.Since(s.start).Seconds(),
		QueueDepth:    int(s.queued.Load()),
		QueueCap:      s.cfg.Workers + s.cfg.Queue,
		QueueWaitUS:   s.queueWaitUS.Snapshot(),
		RunDurationUS: s.runDurationUS.Snapshot(),
		Streams:       s.broker.Metrics(),
	}
	if s.store != nil {
		m := s.store.Metrics()
		resp.Store = &m
		resp.Replication = s.replicationMetrics()
	}
	s.mu.Lock()
	for name, c := range s.endpoints {
		resp.Endpoints[name] = schema.EndpointMetrics{
			Requests: c.requests.Load(),
			OK:       c.ok.Load(),
			Errors4x: c.errors4x.Load(),
			Errors5x: c.errors5x.Load(),
			Timeouts: c.timeouts.Load(),
		}
		if c.latencyUS.Count() > 0 {
			if resp.EndpointLatencyUS == nil {
				resp.EndpointLatencyUS = make(map[string]schema.Histogram)
			}
			resp.EndpointLatencyUS[name] = c.latencyUS.Snapshot()
		}
	}
	for eng, n := range s.engineRuns {
		if resp.EngineRuns == nil {
			resp.EngineRuns = make(map[string]uint64)
		}
		resp.EngineRuns[eng] = n
	}
	for mode, c := range s.keyChecks {
		if resp.KeyChecks == nil {
			resp.KeyChecks = make(map[string]schema.KeyCheckStats)
		}
		st := schema.KeyCheckStats{Runs: c.runs, Violations: c.violations}
		if c.runs > 0 {
			st.Rate = float64(c.violations) / float64(c.runs)
		}
		resp.KeyChecks[mode] = st
	}
	s.mu.Unlock()
	writeEnvelope(w, http.StatusOK, resp)
}
