// Package mmu implements the Sv39-style memory management unit of the
// prototype, extended with ROLoad page keys.
//
// Following the paper (Section III-A), each 64-bit page table entry
// reuses its reserved top 10 bits to hold a page *key*. The MMU's
// permission logic gains one extra check that runs in parallel with the
// conventional permission check: a ROLoad memory operation succeeds only
// if the accessed leaf page is readable, NOT writable, and its key
// equals the key carried by the requesting instruction. The result of
// this extra logic is ANDed with the conventional permission output, so
// the check adds no serial delay (see internal/hw for the timing model).
package mmu

import (
	"fmt"

	"roload/internal/mem"
	"roload/internal/obs"
)

// PTE permission and status bits (Sv39 layout).
const (
	PTEValid  uint64 = 1 << 0
	PTERead   uint64 = 1 << 1
	PTEWrite  uint64 = 1 << 2
	PTEExec   uint64 = 1 << 3
	PTEUser   uint64 = 1 << 4
	PTEGlobal uint64 = 1 << 5
	PTEAcc    uint64 = 1 << 6
	PTEDirty  uint64 = 1 << 7

	pteKeyShift = 54 // reserved bits [63:54] hold the ROLoad key
	pteKeyMask  = 0x3ff
	ptePPNShift = 10
	ptePPNMask  = (1 << 44) - 1
)

// Access distinguishes the kinds of memory operation presented to the
// MMU. ROLoadRead is the new memory-op type issued by decoded
// ld.ro-family instructions (MemoryOpConstants in the paper's Rocket
// changes).
type Access int

const (
	Read Access = iota
	Write
	Exec
	ROLoadRead
)

func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Exec:
		return "exec"
	case ROLoadRead:
		return "roload"
	}
	return fmt.Sprintf("access(%d)", int(a))
}

// FaultCause mirrors the RISC-V page-fault exception causes.
type FaultCause int

const (
	FaultNone FaultCause = iota
	FaultLoadPage
	FaultStorePage
	FaultInstPage
)

func (c FaultCause) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultLoadPage:
		return "load page fault"
	case FaultStorePage:
		return "store page fault"
	case FaultInstPage:
		return "instruction page fault"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Fault describes a failed translation. Hardware raises a plain load
// page fault for a failed ROLoad check; the ROLoad, WantKey, GotKey and
// NotReadOnly fields model the auxiliary state the kernel reads to
// distinguish ROLoad faults from benign ones (paper Section III-B).
type Fault struct {
	Cause       FaultCause
	VA          uint64
	ROLoad      bool   // raised by a ROLoad-family instruction
	WantKey     uint16 // key demanded by the instruction
	GotKey      uint16 // key of the accessed page (valid pages only)
	NotReadOnly bool   // the page was writable or not readable
	Unmapped    bool   // no valid leaf PTE
}

func (f *Fault) Error() string {
	if f.ROLoad {
		return fmt.Sprintf("mmu: ROLoad fault at %#x (want key %d, got key %d, notRO=%v, unmapped=%v)",
			f.VA, f.WantKey, f.GotKey, f.NotReadOnly, f.Unmapped)
	}
	return fmt.Sprintf("mmu: %s at %#x", f.Cause, f.VA)
}

// Stats aggregates translation activity for the performance model.
type Stats struct {
	TLBHits    uint64
	TLBMisses  uint64
	PageWalks  uint64
	WalkMemOps uint64 // physical memory reads performed by the walker
	Faults     uint64
}

// Config parameterizes the MMU. The defaults mirror Table II of the
// paper: 32-entry TLBs.
type Config struct {
	TLBEntries int
	// ROLoadEnabled gates the ld.ro key check logic, so the same MMU
	// models both the unmodified baseline processor and the
	// ROLoad-capable one. When false, a ROLoadRead access behaves
	// exactly like Read (the encoding would be an illegal instruction
	// on stock hardware; the kernel layer models that).
	ROLoadEnabled bool
	// NoFastPath disables the L0 inline translation cache, forcing
	// every Translate through the full TLB machinery. Results (PAs,
	// faults, statistics, cycle accounting) are bit-identical either
	// way; the flag exists for host-performance A/B runs and for the
	// fast-path equivalence tests.
	NoFastPath bool
}

// DefaultConfig returns the Table II configuration.
func DefaultConfig() Config {
	return Config{TLBEntries: 32, ROLoadEnabled: true}
}

// l0Slots is the size of the direct-mapped L0 inline cache in front of
// the TLB. Small on purpose: it only needs to capture the handful of
// pages an instruction sequence touches back-to-back.
const l0Slots = 16

// l0Entry is one L0 slot. It mirrors an entry known to be present in
// the TLB right now; any TLB mutation clears the whole L0, so a slot
// hit proves a full Translate would have been a TLB hit too.
//
// Like the paper's TLB entry, which carries the page key so the ROLoad
// check needs no extra lookup, a slot also carries its permission
// outcome per access kind, computed by fill from the entry it mirrors:
// an access the outcome passes needs no call to check. The ROLoad key
// itself is still compared on every access, against the entry the TLB
// holds now.
type l0Entry struct {
	vpn uint64
	e   TLBEntry // e.Valid doubles as the slot-valid bit

	read, write, exec bool
	roKey             int32 // key a ROLoadRead must carry to pass; noROKey when none can
	pa                uint64
}

// noROKey marks a slot no ROLoadRead passes without the full check:
// the page is writable or unreadable, or the ROLoad logic is off.
const noROKey = -1

// allows reports whether the slot's precomputed outcome passes an
// access of kind at carrying key. It never passes an access check
// would fault; it may refuse one check would pass (a ROLoadRead on an
// MMU without the ROLoad logic), which the caller sends to check.
func (s *l0Entry) allows(at Access, key uint16) bool {
	switch at {
	case Read:
		return s.read
	case Write:
		return s.write
	case Exec:
		return s.exec
	}
	return s.roKey == int32(key)
}

// MMU is a single translation unit (the prototype has separate I and D
// TLBs; instantiate one MMU per side sharing the same root).
type MMU struct {
	cfg   Config
	phys  *mem.Physical
	root  uint64 // physical address of the level-2 (top) page table
	tlb   *TLB
	stats Stats

	// l0 is the inline translation cache. Invariant: every valid slot
	// holds a translation currently present in the TLB, so serving it
	// is observably identical (PA, fault, hit statistics) to the full
	// lookup. Every TLB insert, Flush, FlushPage, SetRoot, CorruptTLB
	// and SetState clears it, which also drops the slots' cached
	// permission outcomes.
	l0    [l0Slots]l0Entry
	useL0 bool

	// gen is bumped by every clearL0, so it changes whenever the TLB
	// may have. A caller that saw a translation pass under generation
	// g knows, while Gen still returns g, that the same access would
	// hit the TLB and pass again (the CPU's D-side line memo).
	gen uint64

	// probe, when non-nil, observes TLB lookups, page-table walks and
	// ROLoad key checks. side tags the events (I- or D-side); cycles,
	// when non-nil, timestamps them with the owning core's counter.
	probe  obs.Probe
	side   obs.Side
	cycles *uint64
}

// New constructs an MMU over the given physical memory.
func New(phys *mem.Physical, cfg Config) *MMU {
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 32
	}
	return &MMU{cfg: cfg, phys: phys, tlb: NewTLB(cfg.TLBEntries), useL0: !cfg.NoFastPath, gen: 1}
}

// clearL0 invalidates the inline cache and bumps the generation;
// called on every operation that can change TLB contents, preserving
// the L0 mirror invariant.
func (m *MMU) clearL0() {
	for i := range m.l0 {
		m.l0[i].e.Valid = false
	}
	m.gen++
}

// Gen returns the TLB generation: it changes on every operation that
// can change the TLB's contents. It starts at 1, so a zero generation
// never matches.
func (m *MMU) Gen() uint64 { return m.gen }

// SetRoot installs the physical address of the root page table and
// flushes the TLB (the satp write + sfence.vma pair).
func (m *MMU) SetRoot(pa uint64) {
	m.root = pa
	m.tlb.Flush()
	m.clearL0()
}

// Root returns the current root page table address.
func (m *MMU) Root() uint64 { return m.root }

// Flush invalidates all TLB entries (sfence.vma).
func (m *MMU) Flush() {
	m.tlb.Flush()
	m.clearL0()
}

// FlushPage invalidates any TLB entry covering va.
func (m *MMU) FlushPage(va uint64) {
	m.tlb.FlushPage(va)
	m.clearL0()
}

// CorruptTLB applies fn to the live TLB entry covering va, if any, and
// reports whether one was found — the fault-injection hook for
// TLB-state corruption (a bit flip in the translation array, not the
// page tables). It preserves the PR 2 fast-path invariant by clearing
// the L0 mirror: every valid L0 slot must mirror a translation as the
// TLB currently holds it, so after an in-place TLB mutation the mirror
// is rebuilt lazily from the corrupted entry.
func (m *MMU) CorruptTLB(va uint64, fn func(*TLBEntry)) bool {
	hit := m.tlb.Update(va, fn)
	if hit {
		m.clearL0()
	}
	return hit
}

// State is the checkpointable translation state: the root, the
// statistics, and the exact TLB contents (entries plus round-robin
// cursor). The L0 mirror is deliberately absent — it is a host-side
// cache rebuilt lazily, bit-identical by the fast-path invariant.
type State struct {
	Root    uint64     `json:"root"`
	Stats   Stats      `json:"stats"`
	TLB     []TLBEntry `json:"tlb"`
	TLBNext int        `json:"tlb_next"`
}

// State captures the MMU for a checkpoint.
func (m *MMU) State() State {
	entries, next := m.tlb.Entries()
	return State{Root: m.root, Stats: m.stats, TLB: entries, TLBNext: next}
}

// SetState restores a checkpointed MMU state. Unlike SetRoot it does
// not flush: the TLB contents are restored exactly, so hit/miss
// sequences after a resume replay bit-identically.
func (m *MMU) SetState(s State) error {
	if err := m.tlb.SetEntries(s.TLB, s.TLBNext); err != nil {
		return err
	}
	m.root = s.Root
	m.stats = s.Stats
	m.clearL0()
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (m *MMU) Stats() Stats { return m.stats }

// ResetStats clears the statistics counters.
func (m *MMU) ResetStats() { m.stats = Stats{} }

// Enabled reports whether ROLoad checks are implemented by this MMU.
func (m *MMU) Enabled() bool { return m.cfg.ROLoadEnabled }

// SetProbe attaches (or with p == nil detaches) an event probe. side
// tags emitted events; cycles, when non-nil, supplies the timestamp
// counter (the owning CPU's cycle register).
func (m *MMU) SetProbe(p obs.Probe, side obs.Side, cycles *uint64) {
	m.probe = p
	m.side = side
	m.cycles = cycles
}

func (m *MMU) now() uint64 {
	if m.cycles != nil {
		return *m.cycles
	}
	return 0
}

// Translate resolves va for the given access. key is only meaningful
// for ROLoadRead. It returns the physical address and whether the
// translation missed the TLB (the CPU charges a walk penalty on a
// miss).
func (m *MMU) Translate(va uint64, at Access, key uint16) (pa uint64, tlbMiss bool, fault *Fault) {
	// L0 fast path: a valid slot mirrors an entry currently in the TLB,
	// so this branch performs exactly the bookkeeping of a TLB hit. It
	// is bypassed with a probe attached (the slow path emits per-lookup
	// events) and when the fast paths are configured off.
	if m.useL0 && m.probe == nil {
		vpn := va >> mem.PageShift
		if s := &m.l0[vpn&(l0Slots-1)]; s.e.Valid && s.vpn == vpn {
			m.stats.TLBHits++
			if !s.allows(at, key) {
				if f := m.check(s.e, va, at, key); f != nil {
					m.stats.Faults++
					return 0, false, f
				}
			}
			return s.pa | va&(mem.PageSize-1), false, nil
		}
	}
	e, hit := m.tlb.Lookup(va)
	if m.probe != nil {
		m.probe.Event(obs.Event{
			Kind: obs.KindTLB, Side: m.side, Hit: hit, VA: va, Cycle: m.now(),
		})
	}
	if hit {
		m.stats.TLBHits++
	} else {
		m.stats.TLBMisses++
		var f *Fault
		memOps0 := m.stats.WalkMemOps
		e, f = m.walk(va, at)
		if m.probe != nil {
			m.probe.Event(obs.Event{
				Kind: obs.KindWalk, Side: m.side, Hit: f == nil, VA: va,
				Num: m.stats.WalkMemOps - memOps0, Cycle: m.now(),
			})
		}
		if f != nil {
			m.stats.Faults++
			return 0, true, f
		}
		// The insert may evict any TLB entry (round-robin), so the L0
		// mirror must be rebuilt from scratch.
		m.tlb.Insert(e)
		m.clearL0()
	}
	if m.useL0 {
		m.fill(e)
	}
	if f := m.check(e, va, at, key); f != nil {
		m.stats.Faults++
		return 0, !hit, f
	}
	return e.PPN<<mem.PageShift | va&(mem.PageSize-1), !hit, nil
}

// fill installs e, an entry the TLB holds now, in its L0 slot with the
// precomputed permission outcome.
func (m *MMU) fill(e TLBEntry) {
	s := &m.l0[e.VPN&(l0Slots-1)]
	*s = l0Entry{
		vpn: e.VPN, e: e, pa: e.PPN << mem.PageShift,
		read:  e.Perms&PTERead != 0,
		write: e.Perms&PTEWrite != 0,
		exec:  e.Perms&PTEExec != 0,
		roKey: noROKey,
	}
	if m.cfg.ROLoadEnabled && s.read && !s.write {
		s.roKey = int32(e.Key)
	}
}

// BumpTLBHits credits n TLB hits without performing lookups. Two
// callers know the lookups would hit and pass. One is the block
// engine's folded fetch accounting: a translated block never crosses
// a page, so after the block-entry Translate has hit or installed the
// entry, every remaining fetch in the block is a guaranteed TLB hit
// whose only simulated effect is this counter (nothing between two
// instructions of one block can change the page tables or the TLB).
// The other is the CPU's D-side line memo, for an access that passed
// under the current Gen. Calling it in any other situation would break
// the fast-path invariant.
func (m *MMU) BumpTLBHits(n uint64) { m.stats.TLBHits += n }

// check implements the permission control logic. The conventional
// check and the ROLoad check are evaluated independently and combined,
// matching the parallel AND structure described in Section II-E.
func (m *MMU) check(e TLBEntry, va uint64, at Access, key uint16) *Fault {
	// Conventional permission output.
	var convOK bool
	var cause FaultCause
	switch at {
	case Read, ROLoadRead:
		convOK = e.Perms&PTERead != 0
		cause = FaultLoadPage
	case Write:
		convOK = e.Perms&PTEWrite != 0
		cause = FaultStorePage
	case Exec:
		convOK = e.Perms&PTEExec != 0
		cause = FaultInstPage
	}

	// ROLoad output (parallel path). True for every non-ROLoad access.
	roOK := true
	if at == ROLoadRead && m.cfg.ROLoadEnabled {
		readOnly := e.Perms&PTERead != 0 && e.Perms&PTEWrite == 0
		roOK = readOnly && e.Key == key
		if m.probe != nil {
			m.probe.Event(obs.Event{
				Kind: obs.KindROLoadCheck, Side: m.side, Hit: roOK, VA: va,
				WantKey: key, GotKey: e.Key, Cycle: m.now(),
			})
		}
	}

	if convOK && roOK {
		return nil
	}
	f := &Fault{Cause: cause, VA: va}
	if at == ROLoadRead && m.cfg.ROLoadEnabled && !roOK {
		f.ROLoad = true
		f.WantKey = key
		f.GotKey = e.Key
		f.NotReadOnly = e.Perms&PTEWrite != 0 || e.Perms&PTERead == 0
	}
	return f
}

// walk performs the three-level Sv39 table walk.
func (m *MMU) walk(va uint64, at Access) (TLBEntry, *Fault) {
	m.stats.PageWalks++
	cause := FaultLoadPage
	switch at {
	case Write:
		cause = FaultStorePage
	case Exec:
		cause = FaultInstPage
	}
	unmapped := func() (TLBEntry, *Fault) {
		f := &Fault{Cause: cause, VA: va, Unmapped: true}
		if at == ROLoadRead && m.cfg.ROLoadEnabled {
			f.ROLoad = true
		}
		return TLBEntry{}, f
	}
	if m.root == 0 {
		return unmapped()
	}
	// Sv39: VA must be sign-extended from bit 38.
	if sv39Invalid(va) {
		return unmapped()
	}
	table := m.root
	for level := 2; level >= 0; level-- {
		vpn := va >> (mem.PageShift + 9*uint(level)) & 0x1ff
		pteAddr := table + vpn*8
		m.stats.WalkMemOps++
		pte, err := m.phys.ReadUint(pteAddr, 8)
		if err != nil {
			return unmapped()
		}
		if pte&PTEValid == 0 {
			return unmapped()
		}
		ppn := pte >> ptePPNShift & ptePPNMask
		if pte&(PTERead|PTEWrite|PTEExec) != 0 {
			// Leaf. Superpages must be aligned; we only use 4 KiB pages.
			if level != 0 {
				return unmapped()
			}
			return TLBEntry{
				VPN:   va >> mem.PageShift,
				PPN:   ppn,
				Perms: pte & 0xff,
				Key:   uint16(pte >> pteKeyShift & pteKeyMask),
				Valid: true,
			}, nil
		}
		table = ppn << mem.PageShift
	}
	return unmapped()
}

func sv39Invalid(va uint64) bool {
	top := va >> 38
	return top != 0 && top != (1<<26)-1
}

// MakePTE assembles a leaf PTE from a physical page number, permission
// bits, and a ROLoad key.
func MakePTE(ppn uint64, perms uint64, key uint16) uint64 {
	return uint64(key&pteKeyMask)<<pteKeyShift |
		(ppn&ptePPNMask)<<ptePPNShift |
		perms&0xff | PTEValid | PTEAcc | PTEDirty
}

// MakeNonLeafPTE assembles a pointer PTE to the next-level table.
func MakeNonLeafPTE(ppn uint64) uint64 {
	return (ppn&ptePPNMask)<<ptePPNShift | PTEValid
}

// PTEKey extracts the ROLoad key from a PTE.
func PTEKey(pte uint64) uint16 { return uint16(pte >> pteKeyShift & pteKeyMask) }

// PTEPPN extracts the physical page number from a PTE.
func PTEPPN(pte uint64) uint64 { return pte >> ptePPNShift & ptePPNMask }
