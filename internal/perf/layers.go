package perf

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/core"
	"roload/internal/eval"
	"roload/internal/kernel"
	"roload/internal/telemetry"
)

// maxSteps is the evaluation's per-run instruction budget.
const maxSteps = 2_000_000_000

// cell is one simulation: a program built under a hardening scheme and
// run on one of the paper's systems.
type cell struct {
	src string
	h   core.Hardening
	sys core.SystemKind
}

type imageKey struct {
	src string
	h   core.Hardening
}

type imageEntry struct {
	once sync.Once
	img  *asm.Image
	err  error
}

// layerPass runs cells through the public entry point of each layer —
// cc.Compile, harden.Apply, asm.Assemble, kernel.NewSystem+Spawn and
// RunContext — on an eval.ForEach pool, timing every call. Images are
// built once per (source, hardening) and shared across systems, as the
// evaluation's Runner does. With a trace, every call also gets a span.
type layerPass struct {
	runs []kernel.RunResult
	errs []error

	mu                               sync.Mutex
	images                           map[imageKey]*imageEntry
	compile, apply, assemble, spawns []time.Duration
	execs                            []time.Duration
	cellTime                         time.Duration
	wall                             time.Duration
	workers                          int
}

func runLayerPass(ctx context.Context, cells []cell, workers int, tr *telemetry.Trace) *layerPass {
	p := &layerPass{
		runs:    make([]kernel.RunResult, len(cells)),
		errs:    make([]error, len(cells)),
		images:  make(map[imageKey]*imageEntry),
		workers: workers,
	}
	start := time.Now()
	eval.ForEach(workers, len(cells), func(i int) error { //nolint:errcheck // errors are kept per cell
		t0 := time.Now()
		span := tr.Start("eval.cell", "")
		p.runs[i], p.errs[i] = p.runCell(ctx, cells[i], span)
		span.End()
		d := time.Since(t0)
		p.mu.Lock()
		p.cellTime += d
		p.mu.Unlock()
		return nil
	})
	p.wall = time.Since(start)
	return p
}

// timed runs fn under a child span of parent and appends its duration
// to samples.
func (p *layerPass) timed(parent *telemetry.Span, name string, samples *[]time.Duration, fn func()) {
	span := parent.Child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	span.End()
	p.mu.Lock()
	*samples = append(*samples, d)
	p.mu.Unlock()
}

// image builds (once) the image of src under h.
func (p *layerPass) image(src string, h core.Hardening, span *telemetry.Span) (*asm.Image, error) {
	p.mu.Lock()
	e := p.images[imageKey{src, h}]
	if e == nil {
		e = &imageEntry{}
		p.images[imageKey{src, h}] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		var unit *cc.Unit
		p.timed(span, "cc.compile", &p.compile, func() { unit, e.err = cc.Compile(src) })
		if e.err != nil {
			return
		}
		p.timed(span, "harden.apply", &p.apply, func() { e.err = harden.Apply(unit, h.Passes()...) })
		if e.err != nil {
			return
		}
		p.timed(span, "asm.assemble", &p.assemble, func() {
			e.img, e.err = asm.Assemble(unit.Assembly(), asm.DefaultOptions())
		})
	})
	return e.img, e.err
}

func (p *layerPass) runCell(ctx context.Context, c cell, span *telemetry.Span) (kernel.RunResult, error) {
	img, err := p.image(c.src, c.h, span)
	if err != nil {
		return kernel.RunResult{}, err
	}
	cfg := c.sys.Config()
	cfg.MaxSteps = maxSteps
	var machine *kernel.System
	var proc *kernel.Process
	p.timed(span, "kernel.spawn", &p.spawns, func() {
		machine = kernel.NewSystem(cfg)
		proc, err = machine.Spawn(img)
	})
	if err != nil {
		return kernel.RunResult{}, err
	}
	var res kernel.RunResult
	p.timed(span, "cpu.run", &p.execs, func() { res, err = machine.RunContext(ctx, proc) })
	return res, err
}

// err returns the first cell failure.
func (p *layerPass) err() error {
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// metrics returns the per-layer metrics the pass measured.
func (p *layerPass) metrics() []metricValue {
	var exec time.Duration
	var inst uint64
	for _, d := range p.execs {
		exec += d
	}
	var sim simCounts
	for _, r := range p.runs {
		inst += r.Instret
		sim.add(r)
	}
	out := []metricValue{
		p50("cc.compile_p50_ms", p.compile),
		p50("harden.apply_p50_ms", p.apply),
		p50("asm.assemble_p50_ms", p.assemble),
		p50("kernel.spawn_p50_ms", p.spawns),
		{Name: "cpu.ns_per_inst", Unit: "ns", Value: float64(exec.Nanoseconds()) / float64(max(inst, 1)), N: len(p.execs)},
		{Name: "cpu.exec_s_total", Unit: "s", Value: exec.Seconds(), N: len(p.execs)},
		{Name: "eval.pool_util_pct", Unit: "%", Value: 100 * p.cellTime.Seconds() / (p.wall.Seconds() * float64(p.workers)), N: len(p.runs)},
	}
	return append(out, sim.metrics(len(p.runs))...)
}

// totals returns the summed time of each compile-side layer, the
// numbers that put the evaluation's compile share in proportion.
func (p *layerPass) totals() []metricValue {
	sum := func(name string, ds []time.Duration) metricValue {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return metricValue{Name: name, Unit: "ms", Value: ms(t), N: len(ds)}
	}
	return []metricValue{
		sum("cc.compile_total_ms", p.compile),
		sum("harden.apply_total_ms", p.apply),
		sum("asm.assemble_total_ms", p.assemble),
		sum("kernel.spawn_total_ms", p.spawns),
	}
}

func p50(name string, ds []time.Duration) metricValue {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return metricValue{Name: name, Unit: "ms", Value: median(xs), N: len(xs)}
}

// simCounts are exact simulated-machine counts: a change that only
// speeds up the host must leave every one of them identical.
type simCounts struct {
	instret, cycles, dtlbMisses, pageWalks, dcacheMisses, roloads uint64
}

func (s *simCounts) add(r kernel.RunResult) {
	s.instret += r.Instret
	s.cycles += r.Cycles
	s.dtlbMisses += r.DMMU.TLBMisses
	s.pageWalks += r.IMMU.PageWalks + r.DMMU.PageWalks
	s.dcacheMisses += r.DC.Misses
	s.roloads += r.CPUStats.ROLoads
}

func (s simCounts) metrics(n int) []metricValue {
	count := func(name string, v uint64) metricValue {
		return metricValue{Name: name, Unit: "count", Value: float64(v), N: n}
	}
	return []metricValue{
		count("sim.instret", s.instret),
		count("sim.cycles", s.cycles),
		count("mmu.dtlb_misses", s.dtlbMisses),
		count("mmu.page_walks", s.pageWalks),
		count("cache.dmisses", s.dcacheMisses),
		count("cpu.roloads", s.roloads),
	}
}

// engineAblation runs cells serially under each execution engine and
// reports each engine's host speed in simulated MIPS. The engines must
// agree on every observable; a difference is an error.
func engineAblation(ctx context.Context, p *layerPass, cells []cell, tr *telemetry.Trace) ([]metricValue, error) {
	engines := []core.Engine{core.EngineBlocks, core.EngineFast, core.EngineInterp}
	first := make([]kernel.RunResult, len(cells))
	var out []metricValue
	for ei, e := range engines {
		span := tr.Start("cpu.ablate", "")
		span.SetAttr("engine", e.String())
		var inst uint64
		var busy time.Duration
		for i, c := range cells {
			img, err := p.image(c.src, c.h, span)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, _, err := core.RunWith(ctx, img, c.sys, e.Options(core.RunOptions{MaxSteps: maxSteps}))
			busy += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%v engine: %w", e, err)
			}
			if ei == 0 {
				first[i] = res
			} else if f := first[i]; f.Instret != res.Instret || f.Cycles != res.Cycles ||
				f.Exited != res.Exited || f.Code != res.Code || !bytes.Equal(f.Stdout, res.Stdout) {
				return nil, fmt.Errorf("%v engine disagrees with %v on cell %d", e, engines[0], i)
			}
			inst += res.Instret
		}
		span.End()
		out = append(out, metricValue{Name: "cpu." + e.String() + "_mips", Unit: "MIPS",
			Value: float64(inst) / busy.Seconds() / 1e6, N: len(cells)})
	}
	return out, nil
}
