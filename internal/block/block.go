// Package block is the translation half of the block-compiling
// execution engine: it decodes one guest basic block — a straight-line
// run of instructions ending at a control transfer or at an engine
// boundary — into an opcode-classified IR that internal/cpu lowers to
// a flat micro-op array run by one switch loop.
//
// The split mirrors an assembler's encoder/builder separation:
// translation here is a pure function of the physical code bytes (no
// machine state, no accounting), so a different backend — generated Go,
// or a real JIT — could consume the same IR. Everything the lowering
// needs to fold per-block accounting statically (instruction classes,
// cycle-relevant counts, line-group leaders for I-cache accounting) is
// precomputed during translation.
//
// A block never crosses a page: the engine revalidates exactly one
// physical page (via mem.PageRef write generations plus a fresh I-side
// translation) per block entry, the same invalidation key as the
// predecode cache.
package block

import (
	"roload/internal/isa"
	"roload/internal/mem"
)

// Class is the lowering-facing classification of one instruction. It
// determines both the micro-op shape and the static cost/stat folding.
type Class uint8

const (
	// ClassALU covers every ALU opcode with base cost only (LUI and
	// AUIPC included).
	ClassALU Class = iota
	// ClassMul and ClassDiv are ALU opcodes with the extra multiply or
	// divide cycle charge (and a MulDiv stat each).
	ClassMul
	ClassDiv
	// ClassLoad is a regular load, ClassROLoad an ld.ro-family load,
	// ClassStore a store.
	ClassLoad
	ClassROLoad
	ClassStore
	// ClassFence is a no-op retaining only fetch and base accounting.
	ClassFence
	// ClassBranch, ClassJAL and ClassJALR are terminators: always the
	// final instruction of a Body block.
	ClassBranch
	ClassJAL
	ClassJALR
)

// Kind describes what a translated entry represents.
type Kind uint8

const (
	// KindBlock is a runnable block of at least one instruction.
	KindBlock Kind = iota
	// KindUnblockable marks a start instruction the engine must
	// execute via the interpreter (ECALL, EBREAK, CSR reads — which
	// need live counters mid-stream — illegal encodings, and
	// ROLoad-family opcodes when the processor lacks the extension).
	// First holds the decoded instruction so the fallback skips
	// re-decoding.
	KindUnblockable
	// KindSlowFetch marks a start instruction whose 4-byte encoding
	// straddles the page: its fetch performs a second I-side
	// translation whose accounting must replay on every execution, so
	// the address stays on the interpreter permanently.
	KindSlowFetch
)

// Inst is one translated instruction.
type Inst struct {
	In    isa.Inst
	Class Class
	// Off is the byte offset of the instruction from the block start.
	Off uint16
	// LineLeader marks the first instruction fetched from each I-cache
	// line within the block: the engine performs a real (possibly
	// missing) cache access for leaders, and credits the followers'
	// guaranteed hits on that line in one update per line.
	LineLeader bool
}

// Counts are the statically known stat deltas of a fully retired
// block (the dynamic TakenBranch counter is charged at run time).
type Counts struct {
	Loads    uint64
	Stores   uint64
	ROLoads  uint64
	MulDiv   uint64
	Branches uint64
	Jumps    uint64
	Muls     uint64 // subset of MulDiv paying the multiply charge
	Divs     uint64 // subset of MulDiv paying the divide charge
}

// Block is one translated superblock.
type Block struct {
	Kind Kind
	// VA and PA locate the block start; Ref pins the backing physical
	// page's write generation (Ref.Valid() false ⇒ retranslate).
	VA  uint64
	PA  uint64
	Ref mem.PageRef

	Insts  []Inst
	Counts Counts
	// EndOff is the byte offset one past the last instruction: the
	// fall-through PC is VA+EndOff (for branch terminators, the
	// not-taken successor).
	EndOff uint16
	// First is the decoded start instruction for KindUnblockable.
	First isa.Inst
}

// Terminator returns the final instruction if the block ends in a
// control transfer, and ok=false for blocks cut at a page boundary,
// the length cap, or an unblockable successor.
func (b *Block) Terminator() (Inst, bool) {
	if len(b.Insts) == 0 {
		return Inst{}, false
	}
	last := b.Insts[len(b.Insts)-1]
	switch last.Class {
	case ClassBranch, ClassJAL, ClassJALR:
		return last, true
	}
	return Inst{}, false
}

// MaxInsts caps block length (and so the per-block lowering cost).
// Long straight-line runs split into chained blocks.
const MaxInsts = 128

// classify maps an opcode to its class and whether it may start or
// continue a block.
func classify(op isa.Op, roloadEnabled bool) (Class, bool) {
	switch {
	case op == isa.OpInvalid, op == isa.ECALL, op == isa.EBREAK,
		op == isa.CSRRW, op == isa.CSRRS, op == isa.CSRRC:
		return 0, false
	case op.IsROLoad():
		if !roloadEnabled {
			return 0, false // illegal instruction on this processor
		}
		return ClassROLoad, true
	case op.IsBranch():
		return ClassBranch, true
	case op == isa.JAL:
		return ClassJAL, true
	case op == isa.JALR:
		return ClassJALR, true
	case op.IsLoad():
		return ClassLoad, true
	case op.IsStore():
		return ClassStore, true
	case op == isa.FENCE:
		return ClassFence, true
	case op == isa.MUL, op == isa.MULH, op == isa.MULHU, op == isa.MULHSU, op == isa.MULW:
		return ClassMul, true
	case op == isa.DIV, op == isa.DIVU, op == isa.REM, op == isa.REMU,
		op == isa.DIVW, op == isa.DIVUW, op == isa.REMW, op == isa.REMUW:
		return ClassDiv, true
	default:
		return ClassALU, true
	}
}

// Translate decodes the basic block starting at va (physical address
// pa) from phys. It is a pure read: no statistics, no cycle charges,
// no TLB or cache activity — the engine performs all simulated
// accounting at run time. lineBytes is the I-cache line size (for
// LineLeader marking); roloadEnabled mirrors the processor
// configuration, under which ld.ro decodes are illegal.
//
// The returned block's Ref already pins the page's write generation;
// callers must check Ref.Valid() (and re-translate on mismatch) before
// every entry. Translate never fails: undecodable or unblockable
// starts yield KindUnblockable/KindSlowFetch entries that route the
// address to the interpreter.
func Translate(phys *mem.Physical, va, pa uint64, lineBytes int, roloadEnabled bool) *Block {
	b := &Block{VA: va, PA: pa}
	if ref, err := phys.Ref(pa); err == nil {
		b.Ref = ref
	} else {
		// Unreachable in practice: the caller just translated va to pa.
		b.Kind = KindSlowFetch
		return b
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}

	off := uint64(0)
	lastLine := ^uint64(0)
	for len(b.Insts) < MaxInsts {
		iva, ipa := va+off, pa+off
		if iva>>mem.PageShift != va>>mem.PageShift {
			break // next instruction starts on a new page
		}
		low, err := phys.ReadUint(ipa, 2)
		if err != nil {
			break
		}
		size := uint64(2)
		raw := uint32(low)
		if low&3 == 3 {
			if (iva+2)>>mem.PageShift != va>>mem.PageShift {
				// 4-byte parcel straddling the page: permanent slow path.
				if off == 0 {
					b.Kind = KindSlowFetch
					return b
				}
				break
			}
			high, err := phys.ReadUint(ipa+2, 2)
			if err != nil {
				break
			}
			raw |= uint32(high) << 16
			size = 4
		}
		in := isa.Decode(raw)
		class, ok := classify(in.Op, roloadEnabled)
		if !ok {
			if off == 0 {
				b.Kind = KindUnblockable
				b.First = in
				return b
			}
			break
		}
		line := ipa / uint64(lineBytes)
		b.Insts = append(b.Insts, Inst{
			In: in, Class: class, Off: uint16(off), LineLeader: line != lastLine,
		})
		lastLine = line
		off += size
		b.note(class)
		if class == ClassBranch || class == ClassJAL || class == ClassJALR {
			break // terminator: block complete
		}
	}
	b.EndOff = uint16(off)
	if len(b.Insts) == 0 {
		// First parcel unreadable (hole in physical memory): slow path.
		b.Kind = KindSlowFetch
	}
	return b
}

func (b *Block) note(class Class) {
	switch class {
	case ClassLoad:
		b.Counts.Loads++
	case ClassROLoad:
		b.Counts.Loads++
		b.Counts.ROLoads++
	case ClassStore:
		b.Counts.Stores++
	case ClassMul:
		b.Counts.MulDiv++
		b.Counts.Muls++
	case ClassDiv:
		b.Counts.MulDiv++
		b.Counts.Divs++
	case ClassBranch:
		b.Counts.Branches++
	case ClassJAL, ClassJALR:
		b.Counts.Jumps++
	}
}
