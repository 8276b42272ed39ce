// Package kernel implements the operating-system layer of the ROLoad
// prototype: program loading, virtual memory management with page keys,
// the syscall interface, and the page-fault handling that distinguishes
// ROLoad faults from benign ones (paper Section III-B).
//
// The paper's three evaluation systems map onto Config:
//
//	baseline:               ProcessorROLoad=false, KernelROLoad=false
//	processor-modified:     ProcessorROLoad=true,  KernelROLoad=false
//	processor+kernel-mod.:  ProcessorROLoad=true,  KernelROLoad=true
//
// Only the fully modified system can run hardened binaries: without
// kernel support, section keys are never installed in the page tables,
// so the very first ld.ro faults.
package kernel

import (
	"bytes"
	"fmt"

	"roload/internal/asm"
	"roload/internal/cache"
	"roload/internal/cpu"
	"roload/internal/mem"
	"roload/internal/mmu"
	"roload/internal/obs"
	"roload/internal/schema"
)

// Signal numbers delivered on fatal traps.
type Signal int

const (
	SigNone Signal = 0
	SIGILL  Signal = 4
	SIGTRAP Signal = 5
	SIGSEGV Signal = 11
)

func (s Signal) String() string {
	switch s {
	case SigNone:
		return "none"
	case SIGILL:
		return "SIGILL"
	case SIGTRAP:
		return "SIGTRAP"
	case SIGSEGV:
		return "SIGSEGV"
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Config selects which of the paper's system variants to build.
type Config struct {
	// ProcessorROLoad enables ld.ro decode + the MMU key check.
	ProcessorROLoad bool
	// KernelROLoad enables key management (mmap/mprotect keys, keyed
	// section loading) and ROLoad-aware fault reporting.
	KernelROLoad bool
	// MemBytes is the physical memory size (default 256 MiB; the
	// FPGA board had 4 GiB but the workloads need far less).
	MemBytes uint64
	// CPU overrides the core configuration; zero value uses defaults
	// with ROLoadEnabled tracking ProcessorROLoad.
	CPU cpu.Config
	// MaxSteps bounds one Run invocation (0 = 2^40 instructions).
	MaxSteps uint64
	// CancelEvery is the cooperative-cancellation stride of RunContext:
	// the context is polled every CancelEvery retired instructions
	// (0 = DefaultCancelEvery). The stride changes host latency only —
	// simulated observables are bit-identical for any stride.
	CancelEvery uint64
	// Progress, when non-nil, is called with the current retire and
	// cycle counts at every CancelEvery stride boundary — the live
	// progress-tick source for streamed telemetry. It piggybacks on the
	// cancellation poll, so like the poll it changes host-side behaviour
	// only: simulated observables are bit-identical with or without it.
	// Called from the run-driving goroutine; must not block.
	Progress func(instret, cycles uint64)
}

// DefaultCancelEvery is the default RunContext cancellation stride. At
// the simulator's throughput (tens of simulated MIPS) it bounds
// cancellation latency to a few host milliseconds while keeping the
// poll cost unmeasurable.
const DefaultCancelEvery = 65536

// FullSystem returns the processor-and-kernel-modified configuration.
func FullSystem() Config {
	return Config{ProcessorROLoad: true, KernelROLoad: true}
}

// BaselineSystem returns the unmodified system configuration.
func BaselineSystem() Config {
	return Config{}
}

// ProcessorOnlySystem returns the processor-modified configuration.
func ProcessorOnlySystem() Config {
	return Config{ProcessorROLoad: true}
}

// System is one simulated machine: physical memory, a core, and this
// kernel.
type System struct {
	cfg  Config
	phys *mem.Physical
	cpu  *cpu.CPU

	frameNext uint64
	frameEnd  uint64

	attackHook func(*Process) error

	// probe, when non-nil, receives kernel-level events (syscalls,
	// page faults, signal deliveries) on top of whatever the core
	// emits; SetProbe wires both at once.
	probe obs.Probe
	// audit accumulates one record per detected ROLoad violation —
	// the fault path's forensic log (Section III-B), dumped by tools
	// when a process dies with SIGSEGV.
	audit obs.Audit
}

// SetProbe attaches p to the kernel and, transitively, to the core and
// its memory hierarchy. Pass nil to detach.
func (s *System) SetProbe(p obs.Probe) {
	s.probe = p
	s.cpu.SetProbe(p)
}

// Audit returns the ROLoad violation log for this machine.
func (s *System) Audit() *obs.Audit { return &s.audit }

// SetAttackHook registers the callback invoked on the SysAttackHook
// syscall. A hook error kills the process with SIGSEGV (the corruption
// primitive itself was blocked, e.g. by page permissions).
func (s *System) SetAttackHook(fn func(*Process) error) { s.attackHook = fn }

// NewSystem boots a machine.
func NewSystem(cfg Config) *System {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 256 << 20
	}
	ccfg := cfg.CPU
	ccfg.ROLoadEnabled = cfg.ProcessorROLoad
	phys := mem.NewPhysical(cfg.MemBytes)
	return &System{
		cfg:       cfg,
		phys:      phys,
		cpu:       cpu.New(phys, ccfg),
		frameNext: 1 << 20, // leave the first MiB for "firmware"
		frameEnd:  cfg.MemBytes,
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// CPU exposes the core (for statistics and tests).
func (s *System) CPU() *cpu.CPU { return s.cpu }

// Phys exposes physical memory (tests only).
func (s *System) Phys() *mem.Physical { return s.phys }

// AllocFrame implements mmu.FrameAllocator.
func (s *System) AllocFrame() (uint64, error) {
	if s.frameNext+mem.PageSize > s.frameEnd {
		return 0, fmt.Errorf("kernel: out of physical memory")
	}
	pa := s.frameNext
	s.frameNext += mem.PageSize
	if err := s.phys.ZeroPage(pa); err != nil {
		return 0, err
	}
	return pa, nil
}

// Prot bits for mmap/mprotect. The kernel extension packs the ROLoad
// key into bits [26:16] of prot, the approach the paper describes for
// letting user code set up page keys through the existing mmap and
// mprotect system calls.
const (
	ProtRead  = 1
	ProtWrite = 2
	ProtExec  = 4

	ProtKeyShift = 16
)

// ProtWithKey packs permissions and a ROLoad key into one prot word.
func ProtWithKey(prot uint64, key uint16) uint64 {
	return prot | uint64(key)<<ProtKeyShift
}

// RISC-V Linux syscall numbers implemented by the kernel.
const (
	SysWrite    = 64
	SysExit     = 93
	SysBrk      = 214
	SysMunmap   = 215
	SysMmap     = 222
	SysMprotect = 226

	// SysAttackHook is the test-harness hook syscall raised by the
	// compiler's attack_point() intrinsic: the registered callback runs
	// with the process paused, modelling the instant at which a real
	// memory-corruption vulnerability fires. A no-op when no hook is
	// registered.
	SysAttackHook = 9000
)

// RunResult describes a finished (or killed) execution.
type RunResult struct {
	Exited bool
	Code   int
	Signal Signal
	// ROLoadViolation is set when the fatal signal came from a ROLoad
	// check failure — the kernel-side differentiation of Section III-B.
	ROLoadViolation bool
	FaultPC         uint64 // faulting instruction (signal deliveries)
	FaultVA         uint64
	FaultWantKey    uint16
	FaultGotKey     uint16

	// Audit carries the audit records collected during this run: every
	// injected fault (kind schema.AuditInjected) and any detected
	// ROLoad violation, in order. Partial results (step limit,
	// cancellation) carry the records accumulated so far.
	Audit []obs.AuditRecord

	Cycles  uint64
	Instret uint64
	// MemPeakKiB is the peak resident set in KiB (mapped pages * 4).
	MemPeakKiB uint64
	Stdout     []byte

	CPUStats   cpu.Stats
	IMMU, DMMU mmu.Stats
	IC, DC     cache.Stats
	SyscallCnt uint64
}

// Process is one loaded address space.
type Process struct {
	sys    *System
	mapper *mmu.Mapper
	image  *asm.Image

	brk       uint64
	brkStart  uint64
	mmapNext  uint64
	stackLow  uint64
	stackHigh uint64

	mappedPages uint64
	peakPages   uint64

	stdout bytes.Buffer

	// syscalls counts ecalls serviced across every RunContext slice of
	// this process, so step-limited, cancelled and resumed runs report
	// a correct cumulative count.
	syscalls uint64
	// auditStart is the system audit-log length when this process was
	// spawned; records from index auditStart on belong to this run and
	// are carried in every RunResult (including partial snapshots).
	auditStart int

	finished bool
	result   RunResult
}

func (p *Process) notePages(n uint64) {
	p.mappedPages += n
	if p.mappedPages > p.peakPages {
		p.peakPages = p.mappedPages
	}
}

// Image returns the loaded image.
func (p *Process) Image() *asm.Image { return p.image }

// Mapper exposes the process page-table editor — kernel-privilege
// access for the fault-injection engine (PTE corruption) and tests.
func (p *Process) Mapper() *mmu.Mapper { return p.mapper }

// Sym resolves a symbol address in the loaded image.
func (p *Process) Sym(name string) (uint64, bool) { return p.image.Symbol(name) }

// translateNoCheck resolves va to a physical address using the page
// tables, ignoring permissions — a kernel-privilege access for test
// setup and result inspection.
func (p *Process) translateNoCheck(va uint64) (uint64, bool) {
	pte, _, ok := p.mapper.Lookup(va &^ uint64(mem.PageSize-1))
	if !ok {
		return 0, false
	}
	return mmu.PTEPPN(pte)<<mem.PageShift | va&(mem.PageSize-1), true
}

// PokeMem writes bytes at va with kernel privilege (ignores page
// permissions). Test and loader use.
func (p *Process) PokeMem(va uint64, b []byte) error {
	for len(b) > 0 {
		pa, ok := p.translateNoCheck(va)
		if !ok {
			return fmt.Errorf("kernel: poke to unmapped address %#x", va)
		}
		n := int(mem.PageSize - va%mem.PageSize)
		if n > len(b) {
			n = len(b)
		}
		if err := p.sys.phys.Write(pa, b[:n]); err != nil {
			return err
		}
		va += uint64(n)
		b = b[n:]
	}
	return nil
}

// PeekMem reads bytes at va with kernel privilege.
func (p *Process) PeekMem(va uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pa, ok := p.translateNoCheck(va)
		if !ok {
			return nil, fmt.Errorf("kernel: peek of unmapped address %#x", va)
		}
		c := int(mem.PageSize - va%mem.PageSize)
		if c > n {
			c = n
		}
		buf := make([]byte, c)
		if err := p.sys.phys.Read(pa, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		va += uint64(c)
		n -= c
	}
	return out, nil
}

// PeekUint reads an n-byte little-endian value at va.
func (p *Process) PeekUint(va uint64, n int) (uint64, error) {
	b, err := p.PeekMem(va, n)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// CorruptMem models the attacker's arbitrary-write primitive from the
// threat model: it succeeds only on pages that are mapped writable,
// exactly like a store executed by the vulnerable program itself.
func (p *Process) CorruptMem(va uint64, b []byte) error {
	for i := range b {
		a := va + uint64(i)
		pte, _, ok := p.mapper.Lookup(a &^ uint64(mem.PageSize-1))
		if !ok {
			return fmt.Errorf("kernel: attacker write to unmapped address %#x", a)
		}
		if pte&mmu.PTEWrite == 0 {
			return fmt.Errorf("kernel: attacker write to read-only page at %#x blocked by MMU", a)
		}
	}
	return p.PokeMem(va, b)
}

// CorruptUint is CorruptMem for an n-byte little-endian value.
func (p *Process) CorruptUint(va uint64, v uint64, n int) error {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return p.CorruptMem(va, b)
}

// Stdout returns output written so far.
func (p *Process) Stdout() []byte { return p.stdout.Bytes() }

// Snapshot converts the run result into the unified roload-metrics/v1
// document. system labels which of the paper's three configurations
// produced it (e.g. core.SystemKind.String()).
func (r RunResult) Snapshot(system string) schema.Snapshot {
	snap := schema.Snapshot{
		System:          system,
		Exited:          r.Exited,
		ExitCode:        r.Code,
		ROLoadViolation: r.ROLoadViolation,
		FaultPC:         r.FaultPC,
		FaultVA:         r.FaultVA,
		Cycles:          r.Cycles,
		Instret:         r.Instret,
		MemPeakKiB:      r.MemPeakKiB,
		Syscalls:        r.SyscallCnt,
		CPU: schema.CPUCounters{
			Instructions: r.CPUStats.Instructions,
			Loads:        r.CPUStats.Loads,
			Stores:       r.CPUStats.Stores,
			ROLoads:      r.CPUStats.ROLoads,
			Branches:     r.CPUStats.Branches,
			TakenBranch:  r.CPUStats.TakenBranch,
			Jumps:        r.CPUStats.Jumps,
			MulDiv:       r.CPUStats.MulDiv,
			Traps:        r.CPUStats.Traps,
		},
		ITLB:   mmuCounters(r.IMMU),
		DTLB:   mmuCounters(r.DMMU),
		ICache: cacheCounters(r.IC),
		DCache: cacheCounters(r.DC),
		Audit:  r.Audit,
	}
	if r.Signal != SigNone {
		snap.Signal = r.Signal.String()
	}
	return snap
}

func mmuCounters(s mmu.Stats) schema.MMUCounters {
	return schema.MMUCounters{
		TLBHits:    s.TLBHits,
		TLBMisses:  s.TLBMisses,
		PageWalks:  s.PageWalks,
		WalkMemOps: s.WalkMemOps,
		Faults:     s.Faults,
	}
}

func cacheCounters(s cache.Stats) schema.CacheCounters {
	return schema.CacheCounters{Hits: s.Hits, Misses: s.Misses, MissRate: s.MissRate()}
}
