// Package obs is the execution-observability layer of the ROLoad
// prototype: typed event probes, a cycle profiler, a bounded trace
// recorder with a Chrome trace-event exporter, and a ROLoad fault
// audit log. The machine-readable metrics snapshot is
// schema.Snapshot.
//
// The layer is strictly zero-cost when disabled: every emission site
// in internal/cpu, internal/mmu, internal/cache and internal/kernel is
// guarded by a nil-probe check, events are plain value structs, and no
// probe ever influences the simulated cycle model. Attaching a probe
// observes the machine; it never perturbs it (see the cycle-parity
// test in internal/cpu).
//
// The design follows the paper's evaluation needs: Tables I-III and
// Figures 3-5 attribute cycles, faults and hardware events to specific
// instrumentation sequences, so the probes carry exactly those
// quantities — per-instruction cycle costs, TLB/cache hit/miss events,
// page-table walks, and the pass/fail result of every ROLoad key
// check.
package obs

import "roload/internal/isa"

// Kind enumerates the typed events emitted by the simulated machine.
type Kind uint8

const (
	// KindRetire is one retired instruction. PC/Op/Size identify it;
	// Cost is the cycles charged for it (base + memory penalties);
	// Cycle is the core cycle counter after retirement.
	KindRetire Kind = iota
	// KindTrap is a suspension of user execution (page fault, ecall,
	// illegal instruction, ...). Num holds the cpu.TrapKind value.
	KindTrap
	// KindTLB is one TLB lookup. Side says which TLB; Hit its result.
	KindTLB
	// KindWalk is one page-table walk. Num is the number of physical
	// memory accesses the walker performed; Hit is true when the walk
	// found a valid leaf.
	KindWalk
	// KindCache is one L1 access. Side says which cache; Hit its result.
	KindCache
	// KindROLoadCheck is the MMU's parallel key check on a ROLoadRead
	// access. Hit is the pass/fail outcome; WantKey/GotKey the operands.
	KindROLoadCheck
	// KindSyscall is a kernel syscall dispatch. Num is the syscall
	// number, PC the ecall site.
	KindSyscall
	// KindPageFault is the kernel-visible page fault. VA is the fault
	// address, PC the faulting instruction.
	KindPageFault
	// KindSignal is a fatal signal delivery. Num is the signal number.
	KindSignal
)

func (k Kind) String() string {
	switch k {
	case KindRetire:
		return "retire"
	case KindTrap:
		return "trap"
	case KindTLB:
		return "tlb"
	case KindWalk:
		return "walk"
	case KindCache:
		return "cache"
	case KindROLoadCheck:
		return "roload-check"
	case KindSyscall:
		return "syscall"
	case KindPageFault:
		return "page-fault"
	case KindSignal:
		return "signal"
	}
	return "event"
}

// Side distinguishes the instruction- and data-side halves of the
// memory hierarchy in KindTLB and KindCache events.
type Side uint8

const (
	SideI Side = iota
	SideD
)

func (s Side) String() string {
	if s == SideI {
		return "I"
	}
	return "D"
}

// Flag bits carried by KindRetire events. The emitter classifies
// control transfers so stack-reconstructing probes (profiler, trace
// exporter) need no ISA knowledge of their own.
const (
	// FlagCall marks a linking jump (jal/jalr with rd=ra): the next
	// retired instruction begins a callee frame.
	FlagCall uint8 = 1 << iota
	// FlagRet marks a function return (jalr zero, 0(ra)).
	FlagRet
)

// Event is one observation. It is a plain value: emitting an event
// never allocates, so a probe can be attached to the hottest paths of
// the core. Field meaning depends on Kind (see the Kind constants).
type Event struct {
	Kind    Kind
	Side    Side
	Hit     bool
	Size    uint8
	Flags   uint8
	Op      isa.Op
	Cycle   uint64 // core cycle counter at emission
	PC      uint64
	VA      uint64
	Cost    uint64 // KindRetire: cycles charged to this instruction
	Num     uint64 // trap kind / syscall number / signal / walk mem ops
	WantKey uint16
	GotKey  uint16
}

// IsCall reports whether this retire event is a linking jump.
func (e Event) IsCall() bool { return e.Flags&FlagCall != 0 }

// IsRet reports whether this retire event is a function return.
func (e Event) IsRet() bool { return e.Flags&FlagRet != 0 }

// Probe receives events. Implementations must not retain pointers into
// the machine; the event value carries everything they may keep.
//
// A nil Probe means observability is off; emission sites guard with a
// nil check so the disabled cost is one predictable branch.
type Probe interface {
	Event(e Event)
}

// Multi fans one event stream out to several probes.
type Multi []Probe

// Event implements Probe.
func (m Multi) Event(e Event) {
	for _, p := range m {
		if p != nil {
			p.Event(e)
		}
	}
}

// Combine returns the simplest probe equivalent to attaching every
// non-nil argument: nil for none, the probe itself for one, a Multi
// otherwise.
func Combine(probes ...Probe) Probe {
	var live Multi
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Counters is a trivial probe counting events by kind; tests and the
// metrics snapshot use it to cross-check emission sites.
type Counters struct {
	ByKind [KindSignal + 1]uint64
}

// Event implements Probe.
func (c *Counters) Event(e Event) {
	if int(e.Kind) < len(c.ByKind) {
		c.ByKind[e.Kind]++
	}
}

// Total returns the number of observed events.
func (c *Counters) Total() uint64 {
	var n uint64
	for _, v := range c.ByKind {
		n += v
	}
	return n
}
