// The chaos surface of roload-serve: an arming endpoint for injectable
// latency, worker panics and synthetic errors, plus the seeded
// fault-injection run path behind RunRequest.FaultCount. Everything
// here is gated behind Config.Chaos — a production server without the
// flag routes none of it and rejects fault-injection requests — and is
// what the resilience tests (panic recovery, graceful drain under
// panic, degraded health) drive.
package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"roload/internal/asm"
	"roload/internal/core"
	"roload/internal/fault"
	"roload/internal/httpapi"
	"roload/internal/kernel"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// chaosState is the armed chaos configuration. POST /v1/chaos replaces
// it wholesale; the run handler consumes panic/error tokens one per
// request.
type chaosState struct {
	mu        sync.Mutex
	latency   time.Duration
	panicNext int
	errorNext int
}

func (c *chaosState) arm(req schema.ChaosRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latency = time.Duration(req.LatencyMS) * time.Millisecond
	c.panicNext = req.PanicNext
	c.errorNext = req.ErrorNext
}

// takeRun consumes the chaos decision for one run request: the armed
// latency plus at most one panic or error token.
func (c *chaosState) takeRun() (delay time.Duration, doPanic, doError bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delay = c.latency
	if c.panicNext > 0 {
		c.panicNext--
		return delay, true, false
	}
	if c.errorNext > 0 {
		c.errorNext--
		return delay, false, true
	}
	return delay, false, false
}

func (c *chaosState) armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latency > 0 || c.panicNext > 0 || c.errorNext > 0
}

func (c *chaosState) snapshot() schema.ChaosResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return schema.ChaosResponse{
		Armed:     c.latency > 0 || c.panicNext > 0 || c.errorNext > 0,
		LatencyMS: int64(c.latency / time.Millisecond),
		PanicNext: c.panicNext,
		ErrorNext: c.errorNext,
	}
}

func (s *Server) handleChaosSet(w http.ResponseWriter, r *http.Request) {
	var req schema.ChaosRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	if apiErr := checkSchema(req.Schema); apiErr != nil {
		apiErr.write(w)
		return
	}
	if req.LatencyMS < 0 || req.PanicNext < 0 || req.ErrorNext < 0 {
		validationError("chaos values must be non-negative").write(w)
		return
	}
	s.chaos.arm(req)
	httpapi.WriteEnvelope(w, http.StatusOK, s.chaos.snapshot())
}

func (s *Server) handleChaosGet(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteEnvelope(w, http.StatusOK, s.chaos.snapshot())
}

// degraded reports whether the service should advertise itself as
// degraded: chaos is armed, or a worker panic was recovered within the
// configured window. The returned retry hint is seconds until the
// degradation is expected to clear (chaos arming has no natural expiry,
// so it advertises the full window).
func (s *Server) degraded() (bool, int) {
	window := s.cfg.DegradedWindow
	if s.cfg.Chaos && s.chaos.armed() {
		return true, int((window + time.Second - 1) / time.Second)
	}
	if last := s.api.LastPanic(); !last.IsZero() {
		left := window - time.Since(last)
		if left > 0 {
			secs := int((left + time.Second - 1) / time.Second)
			return true, secs
		}
	}
	return false, 0
}

// chaosError is the structured 500 answered for an armed error token.
func chaosError() *apiError {
	return &apiError{http.StatusInternalServerError, schema.ErrorResponse{
		Error: "chaos: injected error", Kind: "chaos"}}
}

// runFaulted executes one run with count seeded faults injected. The
// fault window is sized by a clean profiling run (same image, same
// system), so the generated plan — and therefore the whole faulted run
// — is a pure function of (image, system, seed, count) and reproduces
// byte-for-byte. The partial results of interrupted faulted runs carry
// the injected-fault audit entries accumulated so far.
func runFaulted(ctx context.Context, img *asm.Image, sysKind core.SystemKind, engine core.Engine, seed uint64, count, maxSteps, memBytes uint64) (kernel.RunResult, *schema.FaultTrace, error) {
	// The profiling run gets the event sink stripped: its retire counts
	// would interleave out of order with the faulted run's stream. Its
	// spans still record (under the request span) as a "execute" child.
	clean, _, err := core.RunWith(telemetry.WithSink(ctx, nil), img, sysKind, engine.Options(core.RunOptions{
		MaxSteps: maxSteps,
		MemBytes: memBytes,
	}))
	if err != nil {
		// A budget-bound guest still gets its faults: the window is the
		// budget itself, and the interrupted faulted run's 422 partial
		// carries the injected-fault audit entries. Anything else
		// (cancellation, spawn failure) surfaces as-is.
		var limit *kernel.StepLimitError
		if !errors.As(err, &limit) {
			return clean, nil, err
		}
	}
	plan, err := fault.Generate(seed, int(count), fault.TargetsFromImage(img, clean.Instret))
	if err != nil {
		return kernel.RunResult{}, nil, err
	}

	cfg := sysKind.Config()
	cfg.MaxSteps = maxSteps
	cfg.MemBytes = memBytes
	eo := engine.Options(core.RunOptions{})
	cfg.CPU.NoFastPath = eo.NoFastPath
	cfg.CPU.NoBlocks = eo.NoBlocks
	// The faulted run streams live: progress ticks piggyback on the
	// cancellation stride and audit records (injected faults, detected
	// violations) publish as they are logged — all from this goroutine,
	// so the stream stays in retire-count order.
	sink := telemetry.SinkFromContext(ctx)
	if sink != nil {
		cfg.Progress = func(instret, cycles uint64) {
			sink(schema.RunEvent{Kind: schema.EventProgress, Instret: instret, Cycles: cycles})
		}
	}
	_, span := telemetry.StartSpan(ctx, "execute")
	defer span.End()
	span.SetAttr("mode", "faulted")
	machine := kernel.NewSystem(cfg)
	if sink != nil {
		machine.Audit().SetSink(func(rec schema.AuditRecord) {
			sink(schema.RunEvent{Kind: schema.EventAudit, Instret: rec.Instret,
				Cycles: rec.Cycle, Audit: &rec})
		})
	}
	p, err := machine.Spawn(img)
	if err != nil {
		return kernel.RunResult{}, nil, err
	}
	eng, err := fault.Attach(machine, p, plan)
	if err != nil {
		return kernel.RunResult{}, nil, err
	}
	defer eng.Detach()
	res, err := machine.RunContext(ctx, p)
	span.SetAttrUint("instret", res.Instret)
	trace := eng.Trace()
	return res, &trace, err
}
