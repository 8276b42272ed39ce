// Package cpu implements the in-order RV64IM(+C subset) processor core
// of the prototype system, including the ROLoad-family instructions.
//
// The core is a functional simulator with a cycle-approximate cost
// model calibrated to a small in-order pipeline like the Rocket core:
// one instruction per cycle plus penalties for taken branches, cache
// misses, TLB walks, multiplies, divides and traps. The evaluation in
// the paper reports *relative* execution-time overheads between
// instrumentation schemes on identical hardware, which this level of
// modelling preserves.
//
// ROLoad semantics: a decoded ld.ro-family instruction issues a memory
// operation of the new ROLoadRead type carrying the 10-bit key from its
// immediate field. The D-side MMU performs the read-only and key checks
// in parallel with the normal permission check (see internal/mmu);
// failures surface as load page faults whose auxiliary fault state
// identifies them as ROLoad faults.
package cpu

import (
	"errors"
	"fmt"

	"roload/internal/cache"
	"roload/internal/isa"
	"roload/internal/mem"
	"roload/internal/mmu"
	"roload/internal/obs"
)

// TrapKind enumerates the events that suspend user execution and hand
// control to the kernel.
type TrapKind int

const (
	TrapNone TrapKind = iota
	TrapECall
	TrapEBreak
	TrapPageFault
	TrapIllegalInst
	TrapMisaligned
	// TrapSpurious is an asynchronous trap raised by the
	// fault-injection hook before an instruction executes (a
	// timer-interrupt-like event with no architectural cause). The
	// kernel services and dismisses it; the interrupted instruction
	// has not executed and runs when control returns.
	TrapSpurious
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapECall:
		return "ecall"
	case TrapEBreak:
		return "ebreak"
	case TrapPageFault:
		return "page fault"
	case TrapIllegalInst:
		return "illegal instruction"
	case TrapMisaligned:
		return "misaligned access"
	case TrapSpurious:
		return "spurious trap"
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap describes why execution stopped.
type Trap struct {
	Kind  TrapKind
	PC    uint64
	Inst  isa.Inst
	Fault *mmu.Fault // non-nil for TrapPageFault
}

func (t *Trap) Error() string {
	if t.Fault != nil {
		return fmt.Sprintf("cpu: %s at pc=%#x (%s): %v", t.Kind, t.PC, t.Inst, t.Fault)
	}
	return fmt.Sprintf("cpu: %s at pc=%#x (%s)", t.Kind, t.PC, t.Inst)
}

// CostModel holds the cycle costs charged by the core.
type CostModel struct {
	Base          uint64 // every instruction
	LoadStore     uint64 // extra cycles for a D-side access that hits
	TakenBranch   uint64 // extra cycles for a taken branch (flush)
	Jump          uint64 // extra cycles for jal/jalr
	Mul           uint64 // extra cycles for multiply
	Div           uint64 // extra cycles for divide/remainder
	CacheMiss     uint64 // refill penalty per L1 miss (to DDR3)
	TLBWalkPerMem uint64 // penalty per page-walk memory access
	Trap          uint64 // kernel entry/exit overhead per trap
}

// DefaultCostModel approximates the Rocket core at 125 MHz with DDR3.
func DefaultCostModel() CostModel {
	return CostModel{
		Base:          1,
		LoadStore:     1,
		TakenBranch:   2,
		Jump:          2,
		Mul:           3,
		Div:           32,
		CacheMiss:     30,
		TLBWalkPerMem: 12,
		Trap:          120,
	}
}

// Config parameterizes the core. ROLoadEnabled distinguishes the
// paper's processor-modified system from the stock baseline: when
// false, the ld.ro encodings raise illegal-instruction traps exactly
// as they would on unmodified hardware.
type Config struct {
	ROLoadEnabled bool

	// NoFastPath disables the host-side fast paths (the predecode
	// cache here and the MMUs' inline translation caches). Simulated
	// behaviour — cycles, stats, traps, memory contents — is
	// bit-identical either way; the flag exists so tests can prove
	// that and so anomalies can be bisected to a fast path.
	// NoFastPath also implies NoBlocks: the block engine builds on the
	// same host-only machinery.
	NoFastPath bool

	// NoBlocks disables the block-compiling execution engine while
	// keeping the per-instruction fast paths (the "fast" engine
	// ablation). Like NoFastPath it changes host time only; every
	// simulated observable is bit-identical. The three engine settings
	// are: NoFastPath=true → interp, NoBlocks=true → fast,
	// both false → blocks.
	NoBlocks bool

	ITLBEntries int
	DTLBEntries int
	ICache      cache.Config
	DCache      cache.Config
	Cost        CostModel
}

// DefaultConfig mirrors Table II of the paper.
func DefaultConfig() Config {
	return Config{
		ROLoadEnabled: true,
		ITLBEntries:   32,
		DTLBEntries:   32,
		ICache:        cache.DefaultL1(),
		DCache:        cache.DefaultL1(),
		Cost:          DefaultCostModel(),
	}
}

// Stats counts dynamic instruction mix and memory behaviour.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	ROLoads      uint64
	Branches     uint64
	TakenBranch  uint64
	Jumps        uint64
	MulDiv       uint64
	Traps        uint64
}

// CPU is one hart plus its L1 caches and TLBs.
type CPU struct {
	Regs [isa.NumRegs]uint64
	PC   uint64

	Cycles  uint64
	Instret uint64

	cfg    Config
	phys   *mem.Physical
	imem   *mmu.MMU
	dmem   *mmu.MMU
	icache *cache.Cache
	dcache *cache.Cache
	stats  Stats

	// Predecode cache: per-physical-page arrays of decoded
	// instructions, so the hot fetch path skips the physical reads and
	// isa.Decode once a parcel has been seen. Keyed by physical page
	// number (decode is VA-independent) and revalidated against the
	// page's write generation via mem.PageRef, which covers stores,
	// loader writes and ZeroPage without a notification protocol.
	// Cleared on SetPageTableRoot as a belt-and-braces measure.
	// Straddling parcels (4-byte instruction beginning at the last
	// halfword of a page) stay on the slow path forever: their refetch
	// performs a second I-side Translate whose TLB accounting must be
	// replayed each time.
	useFast    bool
	predecode  map[uint64]*pageCode
	lastCodePN uint64
	lastCode   *pageCode

	// Block engine state (see blocks.go): translated-superblock cache
	// keyed by virtual start address, each entry revalidated against
	// the backing physical page's write generation (mem.PageRef) and
	// against a fresh I-side translation on every entry, exactly like
	// the predecode cache plus a physical-address match. Dropped on
	// SetPageTableRoot and SetState (checkpoint restore); rebuilt
	// lazily.
	useBlocks bool
	blocks    map[uint64]*compiledBlock

	// D-side line memo (see memo.go), consulted only while useMemo:
	// fast paths on, a D-cache geometry the memo fits and no probe
	// attached.
	memo    [memoSlots]memoEntry
	useMemo bool

	// Tracer, when non-nil, observes every fetched-and-decoded
	// instruction before it executes (so instructions that subsequently
	// trap are still seen, exactly once). Used by tests and the attack
	// harness; nil in benchmark runs. The typed-event Probe (SetProbe)
	// is the richer interface; Tracer remains for lightweight opcode
	// spies.
	Tracer func(pc uint64, in isa.Inst)

	// probe, when non-nil, receives typed obs events: instruction
	// retires with per-instruction cycle cost, and traps. The MMUs and
	// caches share the same probe (wired by SetProbe). nil costs one
	// predicted branch per site and nothing else.
	probe obs.Probe

	// inject, when non-nil, is the deterministic fault-injection hook
	// (internal/fault): consulted before every instruction (PreStep,
	// which may mutate machine state and request a spurious trap) and
	// on every store (FilterStore, which may drop it). nil costs one
	// nil check per site, like Tracer and probe.
	inject Injector
}

// Injector is the fault-injection interface wired by SetInjector. Both
// methods must be deterministic functions of the machine state and the
// injector's own plan: the engine replays identically for identical
// seeds, which is the reproducibility contract of roload-fault/v1.
type Injector interface {
	// PreStep runs before the instruction at the current PC executes,
	// with the current retire count. It may corrupt memory, TLB, or
	// cache state through the published hooks; returning true raises a
	// spurious trap instead of executing the instruction (the PC does
	// not advance).
	PreStep(instret uint64) (spurious bool)
	// FilterStore is consulted once per executed store instruction
	// with its virtual and physical address and width; returning false
	// drops the store (cycles and statistics are still charged — the
	// write simply never reaches memory).
	FilterStore(va, pa uint64, n int) bool
}

// New builds a core over phys.
func New(phys *mem.Physical, cfg Config) *CPU {
	if cfg.ITLBEntries <= 0 {
		cfg.ITLBEntries = 32
	}
	if cfg.DTLBEntries <= 0 {
		cfg.DTLBEntries = 32
	}
	if cfg.ICache.SizeBytes == 0 {
		cfg.ICache = cache.DefaultL1()
	}
	if cfg.DCache.SizeBytes == 0 {
		cfg.DCache = cache.DefaultL1()
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	c := &CPU{
		cfg:     cfg,
		phys:    phys,
		imem:    mmu.New(phys, mmu.Config{TLBEntries: cfg.ITLBEntries, ROLoadEnabled: cfg.ROLoadEnabled, NoFastPath: cfg.NoFastPath}),
		dmem:    mmu.New(phys, mmu.Config{TLBEntries: cfg.DTLBEntries, ROLoadEnabled: cfg.ROLoadEnabled, NoFastPath: cfg.NoFastPath}),
		icache:  cache.New(cfg.ICache),
		dcache:  cache.New(cfg.DCache),
		useFast: !cfg.NoFastPath,
	}
	c.useBlocks = c.useFast && !cfg.NoBlocks
	c.useMemo = c.useFast && memoFits(cfg)
	if c.useFast {
		c.predecode = make(map[uint64]*pageCode)
	}
	if c.useBlocks {
		c.blocks = make(map[uint64]*compiledBlock)
	}
	return c
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetPageTableRoot installs the address-space root in both MMUs and
// flushes the TLBs and caches (context switch / exec).
func (c *CPU) SetPageTableRoot(root uint64) {
	c.imem.SetRoot(root)
	c.dmem.SetRoot(root)
	c.icache.Flush()
	c.dcache.Flush()
	// The predecode cache is keyed by physical page, so it would stay
	// correct across an address-space switch; drop it anyway so a new
	// image never sees stale host state. The block cache is keyed by
	// virtual address, so it must go.
	if c.useFast {
		c.predecode = make(map[uint64]*pageCode)
		c.lastCode = nil
	}
	c.dropBlocks()
}

// FlushTLBPage invalidates both TLBs' entries for va (sfence.vma addr).
func (c *CPU) FlushTLBPage(va uint64) {
	c.imem.FlushPage(va)
	c.dmem.FlushPage(va)
}

// FlushTLB invalidates both TLBs entirely.
func (c *CPU) FlushTLB() {
	c.imem.Flush()
	c.dmem.Flush()
}

// Stats returns the dynamic statistics.
func (c *CPU) Stats() Stats { return c.stats }

// MMUStats returns (I-side, D-side) MMU statistics.
func (c *CPU) MMUStats() (mmu.Stats, mmu.Stats) { return c.imem.Stats(), c.dmem.Stats() }

// CacheStats returns (I-cache, D-cache) statistics.
func (c *CPU) CacheStats() (cache.Stats, cache.Stats) { return c.icache.Stats(), c.dcache.Stats() }

// ResetCounters zeroes cycles and statistics (not architectural state).
func (c *CPU) ResetCounters() {
	c.Cycles = 0
	c.Instret = 0
	c.stats = Stats{}
	c.imem.ResetStats()
	c.dmem.ResetStats()
	c.icache.ResetStats()
	c.dcache.ResetStats()
}

// DataMMU exposes the D-side MMU for kernel fault handling tests.
func (c *CPU) DataMMU() *mmu.MMU { return c.dmem }

// InstMMU exposes the I-side MMU (checkpointing and fault injection).
func (c *CPU) InstMMU() *mmu.MMU { return c.imem }

// DataCache exposes the D-cache (fault injection: dirty-line loss).
func (c *CPU) DataCache() *cache.Cache { return c.dcache }

// InstCache exposes the I-cache.
func (c *CPU) InstCache() *cache.Cache { return c.icache }

// SetInjector attaches (or with nil detaches) the fault-injection
// hook.
func (c *CPU) SetInjector(ij Injector) { c.inject = ij }

// State is the complete checkpointable core state: architectural
// registers and counters, statistics, and the exact TLB and cache
// contents of the memory hierarchy. Host-side fast-path caches
// (predecode, L0, D-side line memo, last-line) are absent by design:
// they change host time only, so rebuilding them lazily after a
// restore is bit-identical (the fast-path invariant).
type State struct {
	Regs    [isa.NumRegs]uint64 `json:"regs"`
	PC      uint64              `json:"pc"`
	Cycles  uint64              `json:"cycles"`
	Instret uint64              `json:"instret"`
	Stats   Stats               `json:"stats"`
	IMMU    mmu.State           `json:"immu"`
	DMMU    mmu.State           `json:"dmmu"`
	ICache  cache.State         `json:"icache"`
	DCache  cache.State         `json:"dcache"`
}

// State captures the core for a checkpoint.
func (c *CPU) State() State {
	return State{
		Regs:    c.Regs,
		PC:      c.PC,
		Cycles:  c.Cycles,
		Instret: c.Instret,
		Stats:   c.stats,
		IMMU:    c.imem.State(),
		DMMU:    c.dmem.State(),
		ICache:  c.icache.State(),
		DCache:  c.dcache.State(),
	}
}

// SetState restores a checkpointed core state. The TLBs and caches are
// restored exactly (no flush), so the instruction, miss and cycle
// streams after a resume replay bit-identically against an
// uninterrupted run. The predecode cache is dropped; it repopulates
// lazily. The D-side line memo needs no drop: restoring the D-side MMU
// bumps its generation, and each hit rechecks the cache line and the
// frame's liveness.
func (c *CPU) SetState(s State) error {
	if err := c.imem.SetState(s.IMMU); err != nil {
		return err
	}
	if err := c.dmem.SetState(s.DMMU); err != nil {
		return err
	}
	if err := c.icache.SetState(s.ICache); err != nil {
		return err
	}
	if err := c.dcache.SetState(s.DCache); err != nil {
		return err
	}
	c.Regs = s.Regs
	c.PC = s.PC
	c.Cycles = s.Cycles
	c.Instret = s.Instret
	c.stats = s.Stats
	if c.useFast {
		c.predecode = make(map[uint64]*pageCode)
		c.lastCode = nil
	}
	c.dropBlocks()
	return nil
}

// SetProbe attaches p to the core and its whole memory hierarchy: the
// CPU emits retire and trap events, the two MMUs emit TLB, walk and
// ROLoad-check events, and the two caches emit access events, all
// timestamped with this core's cycle counter. Passing nil detaches
// everything; the hot path then costs one nil check per site.
func (c *CPU) SetProbe(p obs.Probe) {
	c.probe = p
	c.useMemo = c.useFast && memoFits(c.cfg) && p == nil
	c.imem.SetProbe(p, obs.SideI, &c.Cycles)
	c.dmem.SetProbe(p, obs.SideD, &c.Cycles)
	c.icache.SetProbe(p, obs.SideI, &c.Cycles)
	c.dcache.SetProbe(p, obs.SideD, &c.Cycles)
}

// Probe returns the currently attached probe (nil when disabled).
func (c *CPU) Probe() obs.Probe { return c.probe }

// retireFlags classifies a control transfer for stack-reconstructing
// probes: FlagCall for linking jumps, FlagRet for returns.
func retireFlags(in isa.Inst) uint8 {
	var f uint8
	if (in.Op == isa.JAL || in.Op == isa.JALR) && in.Rd == isa.RA {
		f |= obs.FlagCall
	}
	if in.Op == isa.JALR && in.Rd == isa.Zero && in.Rs1 == isa.RA {
		f |= obs.FlagRet
	}
	return f
}

// emitTrap reports a trap event (cold path).
func (c *CPU) emitTrap(t *Trap) {
	e := obs.Event{Kind: obs.KindTrap, PC: t.PC, Op: t.Inst.Op,
		Num: uint64(t.Kind), Cycle: c.Cycles}
	if t.Fault != nil {
		e.VA = t.Fault.VA
	}
	c.probe.Event(e)
}

func (c *CPU) reg(r isa.Reg) uint64 { return c.Regs[r] }

func (c *CPU) setReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

// Predecode slot states. Each slot covers one halfword of a physical
// page (the minimum parcel size).
const (
	slotUnknown uint8 = iota // never decoded through this slot
	slotDecoded              // insts[slot] holds the decoded parcel
	slotSlow                 // parcel straddles the page; never cache
)

const pageSlots = mem.PageSize / 2

// pageCode is the predecoded view of one physical page. ref pins the
// page's write generation: once the page is written (or zeroed) the
// whole view is discarded and rebuilt lazily.
type pageCode struct {
	ref   mem.PageRef
	class [pageSlots]uint8
	insts [pageSlots]isa.Inst
}

// codePage returns the (possibly fresh) predecode view of the page
// containing physical address pa, or nil if the address is outside
// installed memory.
func (c *CPU) codePage(pa uint64) *pageCode {
	pn := pa >> mem.PageShift
	if pg := c.lastCode; pg != nil && c.lastCodePN == pn {
		if pg.ref.Valid() {
			return pg
		}
		c.lastCode = nil
	}
	pg, ok := c.predecode[pn]
	if ok && !pg.ref.Valid() {
		ok = false
	}
	if !ok {
		ref, err := c.phys.Ref(pa)
		if err != nil {
			return nil
		}
		pg = &pageCode{ref: ref}
		c.predecode[pn] = pg
	}
	c.lastCodePN, c.lastCode = pn, pg
	return pg
}

// fetchInst translates pc, charges the I-side TLB and cache costs, and
// returns the decoded instruction at pc. With fast paths enabled the
// decode is served from the predecode cache when possible; the
// translation, TLB/cache statistics and cycle charges are identical on
// both paths (physical instruction reads carry no stats, so skipping
// them is unobservable in simulated state).
func (c *CPU) fetchInst(pc uint64) (isa.Inst, *Trap) {
	if pc&1 != 0 {
		return isa.Inst{}, &Trap{Kind: TrapMisaligned, PC: pc}
	}
	pa, tlbMiss, fault := c.imem.Translate(pc, mmu.Exec, 0)
	if fault != nil {
		return isa.Inst{}, &Trap{Kind: TrapPageFault, PC: pc, Fault: fault}
	}
	if tlbMiss {
		c.Cycles += c.cfg.Cost.TLBWalkPerMem * 3
	}
	if !c.icache.Access(pa) {
		c.Cycles += c.cfg.Cost.CacheMiss
	}
	if c.useFast {
		if pg := c.codePage(pa); pg != nil {
			slot := (pa & (mem.PageSize - 1)) >> 1
			switch pg.class[slot] {
			case slotDecoded:
				return pg.insts[slot], nil
			case slotUnknown:
				in, straddles, trap := c.fetchDecodeSlow(pc, pa)
				if trap != nil {
					return isa.Inst{}, trap
				}
				if straddles {
					// The refetch's second Translate must replay its
					// TLB accounting every time; keep it slow.
					pg.class[slot] = slotSlow
				} else if pg.ref.Valid() {
					pg.insts[slot] = in
					pg.class[slot] = slotDecoded
				}
				return in, nil
			default: // slotSlow
				in, _, trap := c.fetchDecodeSlow(pc, pa)
				return in, trap
			}
		}
	}
	in, _, trap := c.fetchDecodeSlow(pc, pa)
	return in, trap
}

// fetchDecodeSlow reads and decodes the parcel at pc/pa the
// interpreter's way: low halfword first, then — only for a 4-byte
// encoding whose second halfword crosses the page — a second I-side
// translation for the high halfword. The bool result reports that
// page-straddling case.
func (c *CPU) fetchDecodeSlow(pc, pa uint64) (isa.Inst, bool, *Trap) {
	low, err := c.phys.ReadUint(pa, 2)
	if err != nil {
		return isa.Inst{}, false, &Trap{Kind: TrapPageFault, PC: pc, Fault: &mmu.Fault{Cause: mmu.FaultInstPage, VA: pc}}
	}
	if low&3 != 3 {
		return isa.Decode(uint32(low)), false, nil
	}
	hiPC := pc + 2
	hiPA := pa + 2
	straddles := false
	if hiPC&(mem.PageSize-1) == 0 {
		straddles = true
		var fault *mmu.Fault
		hiPA, _, fault = c.imem.Translate(hiPC, mmu.Exec, 0)
		if fault != nil {
			return isa.Inst{}, true, &Trap{Kind: TrapPageFault, PC: hiPC, Fault: fault}
		}
	}
	high, err := c.phys.ReadUint(hiPA, 2)
	if err != nil {
		return isa.Inst{}, straddles, &Trap{Kind: TrapPageFault, PC: hiPC, Fault: &mmu.Fault{Cause: mmu.FaultInstPage, VA: hiPC}}
	}
	return isa.Decode(uint32(high)<<16 | uint32(low)), straddles, nil
}

// load performs the D-side half of an n-byte load of kind at (key is
// the ROLoad key) at va for instruction in at pc, shared by Step and
// the block engine's slow path: translation with every permission and
// key check, the walk, LoadStore and D-cache charges, and the read. An
// access the D-side line memo passes reads the host frame directly;
// anything else — a memo miss, a page-straddling access — takes the
// full path, and an in-page one refills the memo. Both make the same
// charges in the same order.
func (c *CPU) load(va uint64, n int, at mmu.Access, key uint16, pc uint64, in isa.Inst) (uint64, *Trap) {
	if c.useMemo {
		if e := c.memoEntryFor(va, uint64(n)); e != nil && e.passes(at, key) && c.memoHit(e) {
			return e.frame.ReadUint(va, n), nil
		}
	}
	pa, trap := c.dataAccess(va, n, at, key, pc, in)
	if trap != nil {
		return 0, trap
	}
	if va&(mem.PageSize-1)+uint64(n) <= mem.PageSize {
		v, err := c.phys.ReadUint(pa, n)
		if err != nil {
			return 0, memTrap(err, mmu.FaultLoadPage, va, pc, in)
		}
		if c.useMemo {
			c.memoFill(va, pa, at, key)
		}
		return v, nil
	}
	// Page-straddling bytes are read through a second translation of
	// the next page (already validated by dataAccess).
	var v uint64
	for i := 0; i < n; i++ {
		bpa := pa + uint64(i)
		if (va+uint64(i))&(mem.PageSize-1) == 0 {
			var fault *mmu.Fault
			if bpa, _, fault = c.dmem.Translate(va+uint64(i), at, key); fault != nil {
				return 0, memTrap(fault, mmu.FaultLoadPage, va, pc, in)
			}
			pa = bpa - uint64(i)
		}
		b, err := c.phys.ReadUint(bpa, 1)
		if err != nil {
			return 0, memTrap(err, mmu.FaultLoadPage, va, pc, in)
		}
		v |= b << (8 * uint(i))
	}
	return v, nil
}

// store is load's counterpart for an n-byte store of v. The frame
// write bumps the page's write generation exactly as WriteUint does.
// With an injector attached every store takes the full path, because
// FilterStore must see each one (a dropped store is still charged).
func (c *CPU) store(va, v uint64, n int, pc uint64, in isa.Inst) *Trap {
	if c.useMemo && c.inject == nil {
		if e := c.memoEntryFor(va, uint64(n)); e != nil && e.write && c.memoHit(e) {
			e.frame.WriteUint(va, v, n)
			return nil
		}
	}
	pa, trap := c.dataAccess(va, n, mmu.Write, 0, pc, in)
	if trap != nil || c.inject != nil && !c.inject.FilterStore(va, pa, n) {
		return trap
	}
	if va&(mem.PageSize-1)+uint64(n) <= mem.PageSize {
		if err := c.phys.WriteUint(pa, v, n); err != nil {
			return memTrap(err, mmu.FaultStorePage, va, pc, in)
		}
		if c.useMemo {
			c.memoFill(va, pa, mmu.Write, 0)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		bpa := pa + uint64(i)
		if (va+uint64(i))&(mem.PageSize-1) == 0 {
			var fault *mmu.Fault
			if bpa, _, fault = c.dmem.Translate(va+uint64(i), mmu.Write, 0); fault != nil {
				return memTrap(fault, mmu.FaultStorePage, va, pc, in)
			}
			pa = bpa - uint64(i)
		}
		if err := c.phys.WriteUint(bpa, v>>(8*uint(i))&0xff, 1); err != nil {
			return memTrap(err, mmu.FaultStorePage, va, pc, in)
		}
	}
	return nil
}

// dataAccess is the full path's translation: it translates va for an
// n-byte access and charges the walk, LoadStore and D-cache costs.
// Accesses crossing a page boundary translate both pages (both must
// pass all checks, including the ROLoad check).
func (c *CPU) dataAccess(va uint64, n int, at mmu.Access, key uint16, pc uint64, in isa.Inst) (uint64, *Trap) {
	pa, tlbMiss, fault := c.dmem.Translate(va, at, key)
	if fault != nil {
		return 0, &Trap{Kind: TrapPageFault, PC: pc, Inst: in, Fault: fault}
	}
	if tlbMiss {
		c.Cycles += c.cfg.Cost.TLBWalkPerMem * 3
	}
	if va>>mem.PageShift != (va+uint64(n)-1)>>mem.PageShift {
		_, tlbMiss2, fault2 := c.dmem.Translate(va+uint64(n)-1, at, key)
		if fault2 != nil {
			return 0, &Trap{Kind: TrapPageFault, PC: pc, Inst: in, Fault: fault2}
		}
		if tlbMiss2 {
			c.Cycles += c.cfg.Cost.TLBWalkPerMem * 3
		}
	}
	c.chargeDCache(pa)
	return pa, nil
}

// chargeDCache charges a D-side access that passed translation: the
// LoadStore cycle, then the D-cache access and any refill.
func (c *CPU) chargeDCache(pa uint64) {
	c.Cycles += c.cfg.Cost.LoadStore
	if !c.dcache.Access(pa) {
		c.Cycles += c.cfg.Cost.CacheMiss
	}
}

// memTrap turns a failed access into the instruction's page-fault
// trap: an *mmu.Fault is kept as is, any other error (a physical
// address outside memory) becomes a plain fault of the given cause at
// va.
func memTrap(err error, cause mmu.FaultCause, va, pc uint64, in isa.Inst) *Trap {
	var f *mmu.Fault
	if !errors.As(err, &f) {
		f = &mmu.Fault{Cause: cause, VA: va}
	}
	return &Trap{Kind: TrapPageFault, PC: pc, Inst: in, Fault: f}
}

// raise applies the interpreter's trap accounting to a trap that ends
// the current Step (or a block-engine fetch) and returns it.
func (c *CPU) raise(trap *Trap) *Trap {
	c.stats.Traps++
	c.Cycles += c.cfg.Cost.Trap
	if c.probe != nil {
		c.emitTrap(trap)
	}
	return trap
}

// Step executes one instruction. It returns nil on normal retirement
// or a Trap describing why control must pass to the kernel. The PC is
// left at the faulting instruction for traps, and advanced past it for
// ECALL/EBREAK (sepc handling is the kernel's concern; this interface
// mirrors what the kernel needs).
func (c *CPU) Step() *Trap {
	if c.inject != nil {
		if c.inject.PreStep(c.Instret) {
			return c.raise(&Trap{Kind: TrapSpurious, PC: c.PC})
		}
	}
	var cyc0 uint64
	if c.probe != nil {
		cyc0 = c.Cycles
	}
	pc := c.PC
	in, trap := c.fetchInst(pc)
	if trap != nil {
		return c.raise(trap)
	}
	return c.execFetched(pc, in, cyc0)
}

// execFetched is the back half of Step: decode-complete execution of
// one instruction whose fetch (translation, I-cache access and their
// cycle charges) has already happened. Split out so the block engine
// can finish a single instruction after its entry translation when the
// instruction turns out not to be block-compilable.
func (c *CPU) execFetched(pc uint64, in isa.Inst, cyc0 uint64) *Trap {
	if in.Op == isa.OpInvalid || (in.Op.IsROLoad() && !c.cfg.ROLoadEnabled) {
		return c.raise(&Trap{Kind: TrapIllegalInst, PC: pc, Inst: in})
	}
	if c.Tracer != nil {
		c.Tracer(pc, in)
	}
	c.Cycles += c.cfg.Cost.Base
	next := pc + uint64(in.Size)

	switch {
	case in.Op == isa.LUI:
		c.setReg(in.Rd, uint64(in.Imm))
	case in.Op == isa.AUIPC:
		c.setReg(in.Rd, pc+uint64(in.Imm))
	case in.Op == isa.JAL:
		c.setReg(in.Rd, next)
		next = pc + uint64(in.Imm)
		c.Cycles += c.cfg.Cost.Jump
		c.stats.Jumps++
	case in.Op == isa.JALR:
		t := (c.reg(in.Rs1) + uint64(in.Imm)) &^ 1
		c.setReg(in.Rd, next)
		next = t
		c.Cycles += c.cfg.Cost.Jump
		c.stats.Jumps++
	case in.Op.IsBranch():
		c.stats.Branches++
		if c.evalBranch(in) {
			next = pc + uint64(in.Imm)
			c.Cycles += c.cfg.Cost.TakenBranch
			c.stats.TakenBranch++
		}
	case in.Op.IsLoad():
		n, unsigned := in.Op.LoadWidth()
		at := mmu.Read
		key := uint16(0)
		va := c.reg(in.Rs1) + uint64(in.Imm)
		if in.Op.IsROLoad() {
			at = mmu.ROLoadRead
			key = in.Key
			va = c.reg(in.Rs1) // no offset: the immediate is the key
			c.stats.ROLoads++
		}
		c.stats.Loads++
		v, trap := c.load(va, n, at, key, pc, in)
		if trap != nil {
			return c.raise(trap)
		}
		if !unsigned {
			shift := uint(64 - 8*n)
			v = uint64(int64(v<<shift) >> shift)
		}
		c.setReg(in.Rd, v)
	case in.Op.IsStore():
		n, _ := in.Op.LoadWidth()
		c.stats.Stores++
		if trap := c.store(c.reg(in.Rs1)+uint64(in.Imm), c.reg(in.Rs2), n, pc, in); trap != nil {
			return c.raise(trap)
		}
	case in.Op == isa.ECALL:
		c.Instret++
		c.stats.Instructions++
		c.stats.Traps++
		c.Cycles += c.cfg.Cost.Trap
		c.PC = next
		trap := &Trap{Kind: TrapECall, PC: pc, Inst: in}
		if c.probe != nil {
			c.emitRetire(pc, in, cyc0)
			c.emitTrap(trap)
		}
		return trap
	case in.Op == isa.EBREAK:
		c.Instret++
		c.stats.Instructions++
		c.stats.Traps++
		c.Cycles += c.cfg.Cost.Trap
		c.PC = next
		trap := &Trap{Kind: TrapEBreak, PC: pc, Inst: in}
		if c.probe != nil {
			c.emitRetire(pc, in, cyc0)
			c.emitTrap(trap)
		}
		return trap
	case in.Op == isa.FENCE:
		// No-op in a single-hart system.
	case in.Op == isa.CSRRW || in.Op == isa.CSRRS || in.Op == isa.CSRRC:
		c.execCSR(in)
	default:
		c.execALU(in)
	}

	c.Instret++
	c.stats.Instructions++
	c.PC = next
	if c.probe != nil {
		c.emitRetire(pc, in, cyc0)
	}
	return nil
}

// emitRetire reports one retired instruction with the cycles it was
// charged (cold path; only reached with a probe attached).
func (c *CPU) emitRetire(pc uint64, in isa.Inst, cyc0 uint64) {
	c.probe.Event(obs.Event{
		Kind: obs.KindRetire, PC: pc, Op: in.Op, Size: in.Size,
		Flags: retireFlags(in), Cost: c.Cycles - cyc0, Cycle: c.Cycles,
	})
}

// Run executes until a trap or until maxInstructions retire; it
// returns the trap (nil means the budget was exhausted).
func (c *CPU) Run(maxInstructions uint64) *Trap {
	return c.RunInterruptible(maxInstructions, 0, nil)
}

// RunInterruptible is Run with a cooperative stop: when pollEvery > 0
// and stop is non-nil, stop() is consulted every pollEvery retired
// instructions and a true return ends execution early with a nil trap
// (the caller distinguishes an early stop from an exhausted budget by
// re-checking its own condition). The poll changes host behaviour
// only: the instruction stream, cycle accounting and statistics of the
// instructions that did retire are identical to an uninterrupted run.
func (c *CPU) RunInterruptible(maxInstructions, pollEvery uint64, stop func() bool) *Trap {
	end := c.Instret + maxInstructions
	for c.Instret < end {
		next := end
		if pollEvery > 0 && stop != nil {
			if n := c.Instret + pollEvery; n < end {
				next = n
			}
		}
		if trap := c.runSlice(next); trap != nil {
			return trap
		}
		if stop != nil && c.Instret < end && stop() {
			return nil
		}
	}
	return nil
}

func (c *CPU) evalBranch(in isa.Inst) bool {
	a, b := c.reg(in.Rs1), c.reg(in.Rs2)
	switch in.Op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	return false
}

// CSR numbers implemented by the core (user-level counters).
const (
	CSRCycle   = 0xC00
	CSRTime    = 0xC01
	CSRInstret = 0xC02
)

func (c *CPU) execCSR(in isa.Inst) {
	var v uint64
	switch in.Imm {
	case CSRCycle, CSRTime:
		v = c.Cycles
	case CSRInstret:
		v = c.Instret
	}
	// The user-level counters are read-only; writes are ignored, reads
	// (csrrs rd, csr, x0) return the counter.
	c.setReg(in.Rd, v)
}
