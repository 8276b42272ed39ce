// Package isa defines the RV64IM instruction set used by the ROLoad
// prototype, extended with the ROLoad-family instructions (ld.ro, lw.ro,
// lh.ro, lb.ro and the compressed c.ld.ro).
//
// The ROLoad-family instructions behave like their regular load
// counterparts except that the 12-bit immediate field carries a *page
// key* instead of an address offset, and the hardware refuses to
// complete the load unless the accessed page is read-only and tagged
// with exactly that key. This mirrors the encoding choice in the paper
// (Section III-A): "ld.ro-family instructions no longer have any
// address offset encoded in their immediates".
package isa

import "fmt"

// Reg is a RISC-V integer register number (x0..x31).
type Reg uint8

// Canonical register numbers with their ABI mnemonics.
const (
	Zero Reg = iota // x0: hardwired zero
	RA              // x1: return address
	SP              // x2: stack pointer
	GP              // x3: global pointer
	TP              // x4: thread pointer
	T0              // x5
	T1              // x6
	T2              // x7
	S0              // x8 / fp
	S1              // x9
	A0              // x10
	A1              // x11
	A2              // x12
	A3              // x13
	A4              // x14
	A5              // x15
	A6              // x16
	A7              // x17
	S2              // x18
	S3              // x19
	S4              // x20
	S5              // x21
	S6              // x22
	S7              // x23
	S8              // x24
	S9              // x25
	S10             // x26
	S11             // x27
	T3              // x28
	T4              // x29
	T5              // x30
	T6              // x31

	NumRegs = 32
)

var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register (e.g. "a0").
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// RegByName resolves an ABI name ("a0"), the alias "fp", or a canonical
// numeric name ("x10": decimal, no sign, no leading zero, nothing after
// the number) to a register number. It decodes the name by hand, since
// the assembler calls it for every register operand.
func RegByName(name string) (Reg, bool) {
	switch len(name) {
	case 2:
		c, d := name[1], name[1]-'0'
		switch name[0] {
		case 'x':
			if d <= 9 {
				return Reg(d), true
			}
		case 'a':
			if d <= 7 {
				return A0 + Reg(d), true
			}
		case 's':
			switch {
			case d <= 1:
				return S0 + Reg(d), true
			case d <= 9:
				return S2 + Reg(d-2), true
			case c == 'p':
				return SP, true
			}
		case 't':
			switch {
			case d <= 2:
				return T0 + Reg(d), true
			case d <= 6:
				return T3 + Reg(d-3), true
			case c == 'p':
				return TP, true
			}
		case 'r':
			if c == 'a' {
				return RA, true
			}
		case 'g':
			if c == 'p' {
				return GP, true
			}
		case 'f':
			if c == 'p' {
				return S0, true
			}
		}
	case 3:
		d1, d2 := name[1]-'0', name[2]-'0'
		switch name[0] {
		case 'x':
			if d1 >= 1 && d1 <= 3 && d2 <= 9 && d1*10+d2 < NumRegs {
				return Reg(d1*10 + d2), true
			}
		case 's':
			if d1 == 1 && d2 <= 1 {
				return S10 + Reg(d2), true
			}
		}
	case 4:
		if name == "zero" {
			return Zero, true
		}
	}
	return 0, false
}

// Op enumerates every instruction mnemonic understood by the core.
type Op uint16

const (
	OpInvalid Op = iota

	// RV64I upper-immediate and jumps.
	LUI
	AUIPC
	JAL
	JALR

	// Conditional branches.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// Loads.
	LB
	LH
	LW
	LD
	LBU
	LHU
	LWU

	// Stores.
	SB
	SH
	SW
	SD

	// Immediate ALU.
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	// Register ALU.
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	// RV64I word ops.
	ADDIW
	SLLIW
	SRLIW
	SRAIW
	ADDW
	SUBW
	SLLW
	SRLW
	SRAW

	// System.
	ECALL
	EBREAK
	FENCE
	CSRRW
	CSRRS
	CSRRC

	// RV64M.
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	MULW
	DIVW
	DIVUW
	REMW
	REMUW

	// ROLoad family (this paper's ISA extension). The immediate field
	// carries the page key, not an offset.
	LBRO
	LHRO
	LWRO
	LDRO

	numOps
)

var opNames = map[Op]string{
	LUI: "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LD: "ld", LBU: "lbu", LHU: "lhu", LWU: "lwu",
	SB: "sb", SH: "sh", SW: "sw", SD: "sd",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori", ANDI: "andi",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	ADDIW: "addiw", SLLIW: "slliw", SRLIW: "srliw", SRAIW: "sraiw",
	ADDW: "addw", SUBW: "subw", SLLW: "sllw", SRLW: "srlw", SRAW: "sraw",
	ECALL: "ecall", EBREAK: "ebreak", FENCE: "fence",
	CSRRW: "csrrw", CSRRS: "csrrs", CSRRC: "csrrc",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	MULW: "mulw", DIVW: "divw", DIVUW: "divuw", REMW: "remw", REMUW: "remuw",
	LBRO: "lb.ro", LHRO: "lh.ro", LWRO: "lw.ro", LDRO: "ld.ro",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// OpByName resolves a mnemonic to an opcode.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Ops returns every defined opcode (OpInvalid excluded) in declaration
// order, for exhaustive table-driven tests over the instruction set.
func Ops() []Op {
	out := make([]Op, 0, int(numOps)-1)
	for o := OpInvalid + 1; o < numOps; o++ {
		out = append(out, o)
	}
	return out
}

// IsROLoad reports whether the opcode belongs to the ROLoad family.
func (o Op) IsROLoad() bool {
	return o == LBRO || o == LHRO || o == LWRO || o == LDRO
}

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool {
	switch o {
	case LB, LH, LW, LD, LBU, LHU, LWU, LBRO, LHRO, LWRO, LDRO:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool {
	switch o {
	case SB, SH, SW, SD:
		return true
	}
	return false
}

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return true
	}
	return false
}

// LoadWidth returns the access width in bytes of a load/store opcode
// and whether the loaded value is zero-extended.
func (o Op) LoadWidth() (bytes int, unsigned bool) {
	switch o {
	case LB, LBRO, SB:
		return 1, false
	case LH, LHRO, SH:
		return 2, false
	case LW, LWRO, SW:
		return 4, false
	case LD, LDRO, SD:
		return 8, false
	case LBU:
		return 1, true
	case LHU:
		return 2, true
	case LWU:
		return 4, true
	}
	return 0, false
}

// MaxKey is the largest page key encodable both in a ROLoad instruction
// immediate and in the reserved top bits of an Sv39 PTE (10 bits).
const MaxKey = 1<<10 - 1

// Inst is one decoded instruction.
type Inst struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Imm  int64  // sign-extended immediate (offset, shamt, or CSR number)
	Key  uint16 // page key for ROLoad-family instructions
	Size uint8  // encoded size in bytes: 4, or 2 for compressed forms
	Raw  uint32 // original encoding (lower 16 bits valid when Size==2)
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch {
	case in.Op == OpInvalid:
		return fmt.Sprintf(".word 0x%08x", in.Raw)
	case in.Op.IsROLoad():
		return fmt.Sprintf("%s %s, (%s), %d", in.Op, in.Rd, in.Rs1, in.Key)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.Op.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == JAL:
		return fmt.Sprintf("jal %s, %d", in.Rd, in.Imm)
	case in.Op == JALR:
		return fmt.Sprintf("jalr %s, %d(%s)", in.Rd, in.Imm, in.Rs1)
	case in.Op == LUI || in.Op == AUIPC:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Rd, uint64(in.Imm)>>12&0xfffff)
	case in.Op == ECALL || in.Op == EBREAK || in.Op == FENCE:
		return in.Op.String()
	case in.Op == CSRRW || in.Op == CSRRS || in.Op == CSRRC:
		return fmt.Sprintf("%s %s, %#x, %s", in.Op, in.Rd, uint64(in.Imm)&0xfff, in.Rs1)
	case isImmALU(in.Op):
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

func isImmALU(o Op) bool {
	switch o {
	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
		ADDIW, SLLIW, SRLIW, SRAIW:
		return true
	}
	return false
}
