// Package core is the public façade of the ROLoad reproduction: it
// composes the MiniC compiler, the hardening passes, the assembler,
// and the simulated systems into the build-and-measure pipeline used
// by the examples, the command-line tools, and the benchmark harness.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/isa"
	"roload/internal/kernel"
	"roload/internal/obs"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// SystemKind selects one of the paper's three evaluation systems.
type SystemKind int

const (
	// SysBaseline is the unmodified processor + unmodified kernel.
	SysBaseline SystemKind = iota
	// SysProcessorOnly has ld.ro in hardware but a stock kernel.
	SysProcessorOnly
	// SysFull is the processor-and-kernel-modified system.
	SysFull
)

func (k SystemKind) String() string {
	switch k {
	case SysBaseline:
		return "baseline"
	case SysProcessorOnly:
		return "processor-modified"
	case SysFull:
		return "processor+kernel-modified"
	}
	return fmt.Sprintf("system(%d)", int(k))
}

// Config returns the kernel configuration for the system kind.
func (k SystemKind) Config() kernel.Config {
	switch k {
	case SysProcessorOnly:
		return kernel.ProcessorOnlySystem()
	case SysFull:
		return kernel.FullSystem()
	default:
		return kernel.BaselineSystem()
	}
}

// Hardening selects a program-hardening scheme.
type Hardening int

const (
	// HardenNone compiles without instrumentation.
	HardenNone Hardening = iota
	// HardenVCall applies the paper's virtual-call protection.
	HardenVCall
	// HardenVTint applies the VTint software baseline.
	HardenVTint
	// HardenICall applies the paper's type-based forward-edge CFI.
	HardenICall
	// HardenCFI applies the classic label-based CFI baseline.
	HardenCFI
	// HardenRetGuard applies the backward-edge extension sketched in
	// the paper's Section IV-C: return addresses become pointers into
	// keyed read-only return-site tables.
	HardenRetGuard
	// HardenFull applies ICall + VCall-strength vtable keys + RetGuard:
	// both forward and backward edges under pointee integrity.
	HardenFull
)

func (h Hardening) String() string {
	switch h {
	case HardenNone:
		return "none"
	case HardenVCall:
		return "VCall"
	case HardenVTint:
		return "VTint"
	case HardenICall:
		return "ICall"
	case HardenCFI:
		return "CFI"
	case HardenRetGuard:
		return "RetGuard"
	case HardenFull:
		return "Full"
	}
	return fmt.Sprintf("hardening(%d)", int(h))
}

// Passes returns the hardening passes for the scheme.
func (h Hardening) Passes() []harden.Pass {
	switch h {
	case HardenVCall:
		return []harden.Pass{harden.VCall()}
	case HardenVTint:
		return []harden.Pass{harden.VTint()}
	case HardenICall:
		return []harden.Pass{harden.ICall()}
	case HardenCFI:
		return []harden.Pass{harden.ClassicCFI()}
	case HardenRetGuard:
		return []harden.Pass{harden.RetGuard()}
	case HardenFull:
		return []harden.Pass{harden.ICall(), harden.RetGuard()}
	default:
		return nil
	}
}

// NeedsROLoad reports whether binaries hardened this way require the
// fully modified system.
func (h Hardening) NeedsROLoad() bool {
	return h == HardenVCall || h == HardenICall || h == HardenRetGuard || h == HardenFull
}

// Build compiles MiniC source, applies the hardening scheme, and
// assembles the result. The returned Unit is the post-pass machine
// program (useful for inspection); the Image is ready for Spawn.
func Build(src string, h Hardening) (*asm.Image, *cc.Unit, error) {
	return BuildWith(src, CompileOptions{Harden: h})
}

// BuildWith is Build with the optimizer and RVC compression of opts
// (Dump does not apply). It is the one compile-and-link path: the
// assembler links the unit's typed statements, with no assembly text
// in between.
func BuildWith(src string, opts CompileOptions) (*asm.Image, *cc.Unit, error) {
	unit, err := compileUnit(src, opts)
	if err != nil {
		return nil, nil, err
	}
	img, err := link(unit, opts)
	if err != nil {
		return nil, nil, err
	}
	return img, unit, nil
}

// compileUnit compiles, optimizes if asked, and hardens.
func compileUnit(src string, opts CompileOptions) (*cc.Unit, error) {
	unit, err := cc.Compile(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		cc.Optimize(unit)
	}
	if err := harden.Apply(unit, opts.Harden.Passes()...); err != nil {
		return nil, err
	}
	return unit, nil
}

// link assembles a compiled unit. The compiler's output failing to
// assemble is an internal error.
func link(unit *cc.Unit, opts CompileOptions) (*asm.Image, error) {
	aopts := asm.DefaultOptions()
	aopts.Compress = opts.Compress
	img, err := asm.AssembleLines(unit.Lines, aopts)
	if err != nil {
		return nil, fmt.Errorf("core: assembling hardened program: %w", err)
	}
	return img, nil
}

// RunOptions is the single options path of the execution API,
// parameterizing RunWith and MeasureImage beyond the system kind.
type RunOptions struct {
	// MaxSteps bounds the run (0 = effectively unbounded).
	MaxSteps uint64
	// MemBytes is the guest physical memory size (0 = kernel default,
	// 256 MiB). The HTTP service uses it to enforce per-request memory
	// limits.
	MemBytes uint64
	// CancelEvery is the context-poll stride in retired instructions
	// (0 = kernel.DefaultCancelEvery). Host latency only; simulated
	// observables are identical for any stride.
	CancelEvery uint64
	// Probe, when non-nil, observes the whole machine: instruction
	// retires, traps, TLB/cache/walk activity, ROLoad key checks,
	// syscalls, page faults and signal deliveries. A nil probe costs
	// nothing on the hot path.
	Probe obs.Probe
	// NoFastPath disables the simulator's host-side fast paths
	// (predecode and inline translation caches; implies NoBlocks).
	// Simulated results are bit-identical either way; see
	// cpu.Config.NoFastPath.
	NoFastPath bool
	// NoBlocks disables the block-compiling engine, leaving the
	// per-instruction fast path. Simulated results are bit-identical
	// either way; see cpu.Config.NoBlocks.
	NoBlocks bool
	// CheckpointEvery > 0 slices the run into chunks of that many
	// retired instructions and calls Checkpoint at each boundary —
	// exactly the roload-run -checkpoint-every drive, so the chunked
	// run's simulated observables are bit-identical to an uninterrupted
	// one. MaxSteps is then enforced at chunk granularity.
	CheckpointEvery uint64
	// Checkpoint receives the roload-checkpoint/v1 snapshot at each
	// CheckpointEvery boundary. Returning an error aborts the run.
	Checkpoint func(schema.Checkpoint) error
	// Resume restores the machine from a checkpoint instead of spawning
	// fresh; img must be the exact image the checkpoint was taken from
	// (a mismatch returns *kernel.CheckpointMismatchError naming both
	// digests).
	Resume *schema.Checkpoint
}

// Engine names one of the simulator's execution engines. All three
// produce bit-identical simulated observables; they differ only in
// host speed.
type Engine int

const (
	// EngineBlocks is the block-compiling engine (the default):
	// translated superblocks of pre-bound closures with direct
	// chaining.
	EngineBlocks Engine = iota
	// EngineFast is the per-instruction fast path (predecode and
	// inline translation caches).
	EngineFast
	// EngineInterp is the plain interpreter.
	EngineInterp
)

func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineInterp:
		return "interp"
	case EngineBlocks:
		return "blocks"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Options returns a copy of opts with the engine-selection fields set
// for e.
func (e Engine) Options(opts RunOptions) RunOptions {
	opts.NoFastPath = e == EngineInterp
	opts.NoBlocks = e != EngineBlocks
	return opts
}

// RunWith executes an image on the selected system. The context
// carries the run's deadline: when ctx is cancelled mid-run the kernel
// stops within RunOptions.CancelEvery retired instructions and the
// error is a *kernel.CanceledError alongside a partial result; when
// the step budget runs out it is a *kernel.StepLimitError. Completed
// runs are bit-identical whatever the context — cancellation can only
// truncate a run, never change its observables.
//
// The context may also carry live telemetry: with a telemetry.Trace
// the run is wrapped in an "execute" span, and with a telemetry.Sink
// the run streams progress ticks (one per cancellation stride) and
// audit records as they are logged. Both are host-side observers only
// and cost nothing when absent.
func RunWith(ctx context.Context, img *asm.Image, sys SystemKind, opts RunOptions) (kernel.RunResult, *kernel.Process, error) {
	cfg := sys.Config()
	cfg.MaxSteps = opts.MaxSteps
	if opts.CheckpointEvery > 0 {
		// The chunked drive: the kernel stops at every checkpoint
		// boundary and the loop below enforces the real budget.
		cfg.MaxSteps = opts.CheckpointEvery
	}
	cfg.MemBytes = opts.MemBytes
	cfg.CancelEvery = opts.CancelEvery
	cfg.CPU.NoFastPath = opts.NoFastPath
	cfg.CPU.NoBlocks = opts.NoBlocks
	sink := telemetry.SinkFromContext(ctx)
	if sink != nil {
		cfg.Progress = func(instret, cycles uint64) {
			sink(schema.RunEvent{Kind: schema.EventProgress, Instret: instret, Cycles: cycles})
		}
	}
	_, span := telemetry.StartSpan(ctx, "execute")
	defer span.End()
	span.SetAttr("system", sys.String())
	var machine *kernel.System
	var p *kernel.Process
	var err error
	if opts.Resume != nil {
		machine, p, err = kernel.Restore(cfg, img, *opts.Resume)
		if err != nil {
			return kernel.RunResult{}, nil, err
		}
	} else {
		machine = kernel.NewSystem(cfg)
		if p, err = machine.Spawn(img); err != nil {
			return kernel.RunResult{}, nil, err
		}
	}
	if opts.Probe != nil {
		machine.SetProbe(opts.Probe)
	}
	if sink != nil {
		machine.Audit().SetSink(func(rec obs.AuditRecord) {
			sink(schema.RunEvent{Kind: schema.EventAudit, Instret: rec.Instret,
				Cycles: rec.Cycle, Audit: &rec})
		})
	}
	res, err := machine.RunContext(ctx, p)
	// The checkpoint chunk loop, mirroring roload-run's: every
	// StepLimitError at a boundary snapshots and continues, until the
	// guest exits or the real MaxSteps budget (cumulative Instret) is
	// spent — then the StepLimitError surfaces to the caller as usual.
	for err != nil && opts.CheckpointEvery > 0 {
		var limit *kernel.StepLimitError
		if !errors.As(err, &limit) {
			break
		}
		if opts.MaxSteps > 0 && res.Instret >= opts.MaxSteps {
			break
		}
		if opts.Checkpoint != nil {
			ck, snapErr := kernel.Snapshot(machine, p)
			if snapErr != nil {
				return res, p, snapErr
			}
			if cbErr := opts.Checkpoint(ck); cbErr != nil {
				return res, p, cbErr
			}
		}
		res, err = machine.RunContext(ctx, p)
	}
	span.SetAttrUint("instret", res.Instret)
	span.SetAttrUint("cycles", res.Cycles)
	return res, p, err
}

// CodeSymTable builds a symbol table over the image's executable
// sections, the attribution domain of the obs profiler and trace
// exporter (data labels are excluded so they never shadow functions).
func CodeSymTable(img *asm.Image) *obs.SymTable {
	lo, hi := ^uint64(0), uint64(0)
	for _, sec := range img.Sections {
		if sec.Perm&asm.PermExec == 0 {
			continue
		}
		if sec.VA < lo {
			lo = sec.VA
		}
		if end := sec.VA + sec.Size; end > hi {
			hi = end
		}
	}
	if lo >= hi {
		lo, hi = 0, ^uint64(0)
	}
	return obs.NewSymTable(img.Symbols, lo, hi)
}

// Measurement is one build+run observation.
type Measurement struct {
	Hardening Hardening
	System    SystemKind
	Result    kernel.RunResult
	// ImageBytes is the loadable image size (static memory footprint,
	// the basis of the figures' memory-overhead series).
	ImageBytes uint64
	CodeBytes  uint64
}

// MeasureImage runs a prebuilt image on sys and packages the
// measurement. Images are immutable after assembly, so one image may
// back concurrent MeasureImage calls (each run builds its own
// machine); this is what the eval runner's compile-once cache and the
// HTTP service's multi-tenant sharing rely on. The context semantics
// are RunWith's.
func MeasureImage(ctx context.Context, img *asm.Image, h Hardening, sys SystemKind, opts RunOptions) (Measurement, error) {
	res, _, err := RunWith(ctx, img, sys, opts)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Hardening:  h,
		System:     sys,
		Result:     res,
		ImageBytes: img.TotalSize(),
		CodeBytes:  img.CodeSize(),
	}, nil
}

// CompileOptions parameterizes CompileText and BuildWith.
type CompileOptions struct {
	// Harden selects the hardening scheme applied after compilation.
	Harden Hardening
	// Optimize runs the peephole optimizer before hardening.
	Optimize bool
	// Dump assembles the program and renders a section-by-section
	// disassembly of the linked image instead of assembly text.
	Dump bool
	// Compress applies RVC compression (meaningful with Dump).
	Compress bool
}

// CompileText compiles MiniC source to the textual form roload-cc
// prints: hardened assembly, or (with Dump) a disassembled image. The
// CLI and the HTTP service share this path, which is what makes their
// outputs byte-identical for the same input.
func CompileText(src string, opts CompileOptions) (string, error) {
	unit, err := compileUnit(src, opts)
	if err != nil {
		return "", err
	}
	if !opts.Dump {
		return unit.Assembly(), nil
	}
	img, err := link(unit, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, sec := range img.Sections {
		fmt.Fprintf(&b, "section %s  va=%#x size=%d perm=%v key=%d\n",
			sec.Name, sec.VA, sec.Size, sec.Perm, sec.Key)
		if sec.Perm&asm.PermExec != 0 {
			b.WriteString(isa.DisassembleText(sec.Data, sec.VA))
		}
	}
	return b.String(), nil
}

// Overhead returns (m.value - base.value) / base.value in percent for
// cycles and for peak memory.
func Overhead(base, m Measurement) (runtimePct, memPct float64) {
	runtimePct = 100 * (float64(m.Result.Cycles) - float64(base.Result.Cycles)) / float64(base.Result.Cycles)
	memPct = 100 * (float64(m.Result.MemPeakKiB) - float64(base.Result.MemPeakKiB)) / float64(base.Result.MemPeakKiB)
	return
}
