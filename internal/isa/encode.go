package isa

import "fmt"

// Major opcodes (bits [6:0] of a 32-bit encoding).
const (
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcBranch = 0b1100011
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcOpImm  = 0b0010011
	opcOp     = 0b0110011
	opcOpImmW = 0b0011011
	opcOpW    = 0b0111011
	opcSystem = 0b1110011
	opcFence  = 0b0001111

	// opcROLoad is the custom-0 opcode reserved for non-standard
	// extensions by the RISC-V ISA; the ROLoad prototype uses it for the
	// ld.ro family, with funct3 selecting the access width exactly as
	// the standard load opcode does.
	opcROLoad = 0b0001011
)

// EncodeError reports an operand that does not fit its encoding field.
type EncodeError struct {
	Op     Op
	Field  string
	Value  int64
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: %s=%d %s", e.Op, e.Field, e.Value, e.Reason)
}

func fitsSigned(v int64, bits uint) bool {
	min := -(int64(1) << (bits - 1))
	max := int64(1)<<(bits-1) - 1
	return v >= min && v <= max
}

func encR(opc, f3, f7 uint32, rd, rs1, rs2 Reg) uint32 {
	return f7<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | opc
}

func encI(opc, f3 uint32, rd, rs1 Reg, imm int64) uint32 {
	return uint32(imm&0xfff)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | opc
}

func encS(opc, f3 uint32, rs1, rs2 Reg, imm int64) uint32 {
	i := uint32(imm & 0xfff)
	return (i>>5)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | (i&0x1f)<<7 | opc
}

func encB(opc, f3 uint32, rs1, rs2 Reg, imm int64) uint32 {
	i := uint32(imm) & 0x1fff
	return (i>>12&1)<<31 | (i>>5&0x3f)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 |
		f3<<12 | (i>>1&0xf)<<8 | (i>>11&1)<<7 | opc
}

func encU(opc uint32, rd Reg, imm int64) uint32 {
	return uint32(imm)&0xfffff000 | uint32(rd)<<7 | opc
}

func encJ(opc uint32, rd Reg, imm int64) uint32 {
	i := uint32(imm) & 0x1fffff
	return (i>>20&1)<<31 | (i>>1&0x3ff)<<21 | (i>>11&1)<<20 | (i>>12&0xff)<<12 |
		uint32(rd)<<7 | opc
}

// The encode tables are indexed by Op, so Encode does no map lookups.

// rSpec is the funct3/funct7 pair of a register-register opcode; ok
// marks the opcodes the table defines.
type rSpec struct {
	f3, f7 uint32
	ok     bool
}

var rOps = [numOps]rSpec{
	ADD: {0, 0x00, true}, SUB: {0, 0x20, true}, SLL: {1, 0x00, true}, SLT: {2, 0x00, true},
	SLTU: {3, 0x00, true}, XOR: {4, 0x00, true}, SRL: {5, 0x00, true}, SRA: {5, 0x20, true},
	OR: {6, 0x00, true}, AND: {7, 0x00, true},
	MUL: {0, 0x01, true}, MULH: {1, 0x01, true}, MULHSU: {2, 0x01, true}, MULHU: {3, 0x01, true},
	DIV: {4, 0x01, true}, DIVU: {5, 0x01, true}, REM: {6, 0x01, true}, REMU: {7, 0x01, true},
}

var rwOps = [numOps]rSpec{
	ADDW: {0, 0x00, true}, SUBW: {0, 0x20, true}, SLLW: {1, 0x00, true},
	SRLW: {5, 0x00, true}, SRAW: {5, 0x20, true},
	MULW: {0, 0x01, true}, DIVW: {4, 0x01, true}, DIVUW: {5, 0x01, true},
	REMW: {6, 0x01, true}, REMUW: {7, 0x01, true},
}

// IsRType reports whether the opcode is a register-register ALU op
// (R-type: its second source is rs2, never an immediate).
func (o Op) IsRType() bool { return o < numOps && (rOps[o].ok || rwOps[o].ok) }

var loadF3 = [numOps]uint32{
	LB: 0, LH: 1, LW: 2, LD: 3, LBU: 4, LHU: 5, LWU: 6,
}

var roLoadF3 = [numOps]uint32{
	LBRO: 0, LHRO: 1, LWRO: 2, LDRO: 3,
}

var storeF3 = [numOps]uint32{SB: 0, SH: 1, SW: 2, SD: 3}

var branchF3 = [numOps]uint32{
	BEQ: 0, BNE: 1, BLT: 4, BGE: 5, BLTU: 6, BGEU: 7,
}

var immALUF3 = [numOps]uint32{
	ADDI: 0, SLTI: 2, SLTIU: 3, XORI: 4, ORI: 6, ANDI: 7,
}

var csrF3 = [numOps]uint32{CSRRW: 1, CSRRS: 2, CSRRC: 3}

// Encode produces the 32-bit binary encoding of in. Compressed (16-bit)
// encoding is handled separately by EncodeCompressed.
func Encode(in Inst) (uint32, error) {
	op := in.Op
	switch {
	case op == LUI || op == AUIPC:
		if in.Imm&0xfff != 0 {
			return 0, &EncodeError{op, "imm", in.Imm, "low 12 bits must be zero"}
		}
		if !fitsSigned(in.Imm, 32) {
			return 0, &EncodeError{op, "imm", in.Imm, "out of 32-bit range"}
		}
		opc := uint32(opcLUI)
		if op == AUIPC {
			opc = opcAUIPC
		}
		return encU(opc, in.Rd, in.Imm), nil

	case op == JAL:
		if !fitsSigned(in.Imm, 21) || in.Imm&1 != 0 {
			return 0, &EncodeError{op, "imm", in.Imm, "must be even and fit 21 bits"}
		}
		return encJ(opcJAL, in.Rd, in.Imm), nil

	case op == JALR:
		if !fitsSigned(in.Imm, 12) {
			return 0, &EncodeError{op, "imm", in.Imm, "must fit 12 bits"}
		}
		return encI(opcJALR, 0, in.Rd, in.Rs1, in.Imm), nil

	case op.IsBranch():
		if !fitsSigned(in.Imm, 13) || in.Imm&1 != 0 {
			return 0, &EncodeError{op, "imm", in.Imm, "must be even and fit 13 bits"}
		}
		return encB(opcBranch, branchF3[op], in.Rs1, in.Rs2, in.Imm), nil

	case op.IsROLoad():
		if in.Key > MaxKey {
			return 0, &EncodeError{op, "key", int64(in.Key), "exceeds 10-bit key space"}
		}
		return encI(opcROLoad, roLoadF3[op], in.Rd, in.Rs1, int64(in.Key)), nil

	case op.IsLoad():
		if !fitsSigned(in.Imm, 12) {
			return 0, &EncodeError{op, "imm", in.Imm, "must fit 12 bits"}
		}
		return encI(opcLoad, loadF3[op], in.Rd, in.Rs1, in.Imm), nil

	case op.IsStore():
		if !fitsSigned(in.Imm, 12) {
			return 0, &EncodeError{op, "imm", in.Imm, "must fit 12 bits"}
		}
		return encS(opcStore, storeF3[op], in.Rs1, in.Rs2, in.Imm), nil

	case op == SLLI || op == SRLI || op == SRAI:
		if in.Imm < 0 || in.Imm > 63 {
			return 0, &EncodeError{op, "shamt", in.Imm, "must be 0..63"}
		}
		f3, top := uint32(1), uint32(0)
		if op != SLLI {
			f3 = 5
		}
		if op == SRAI {
			top = 0x10 // funct7[5] set, encoded over imm[11:6]
		}
		return encI(opcOpImm, f3, in.Rd, in.Rs1, int64(top<<6)|in.Imm), nil

	case op == SLLIW || op == SRLIW || op == SRAIW:
		if in.Imm < 0 || in.Imm > 31 {
			return 0, &EncodeError{op, "shamt", in.Imm, "must be 0..31"}
		}
		f3, top := uint32(1), uint32(0)
		if op != SLLIW {
			f3 = 5
		}
		if op == SRAIW {
			top = 0x20
		}
		return encI(opcOpImmW, f3, in.Rd, in.Rs1, int64(top<<5)|in.Imm), nil

	case op == ADDIW:
		if !fitsSigned(in.Imm, 12) {
			return 0, &EncodeError{op, "imm", in.Imm, "must fit 12 bits"}
		}
		return encI(opcOpImmW, 0, in.Rd, in.Rs1, in.Imm), nil

	case op == ADDI || op < numOps && immALUF3[op] != 0:
		if !fitsSigned(in.Imm, 12) {
			return 0, &EncodeError{op, "imm", in.Imm, "must fit 12 bits"}
		}
		return encI(opcOpImm, immALUF3[op], in.Rd, in.Rs1, in.Imm), nil

	case op == ECALL:
		return encI(opcSystem, 0, 0, 0, 0), nil
	case op == EBREAK:
		return encI(opcSystem, 0, 0, 0, 1), nil
	case op == FENCE:
		return encI(opcFence, 0, 0, 0, 0x0ff), nil

	case op < numOps && csrF3[op] != 0:
		if in.Imm < 0 || in.Imm > 0xfff {
			return 0, &EncodeError{op, "csr", in.Imm, "must fit 12 bits unsigned"}
		}
		return encI(opcSystem, csrF3[op], in.Rd, in.Rs1, in.Imm), nil

	case op < numOps && rOps[op].ok:
		return encR(opcOp, rOps[op].f3, rOps[op].f7, in.Rd, in.Rs1, in.Rs2), nil
	case op < numOps && rwOps[op].ok:
		return encR(opcOpW, rwOps[op].f3, rwOps[op].f7, in.Rd, in.Rs1, in.Rs2), nil
	default:
		return 0, &EncodeError{op, "op", int64(op), "unknown opcode"}
	}
}

// MustEncode is Encode for operands known to be in range; it panics on
// encoding failure and is intended for compiler-generated code paths
// whose operands are validated earlier.
func MustEncode(in Inst) uint32 {
	w, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
