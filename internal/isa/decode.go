package isa

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

func immI(raw uint32) int64 { return signExtend(uint64(raw)>>20, 12) }

func immS(raw uint32) int64 {
	v := uint64(raw)>>25<<5 | uint64(raw)>>7&0x1f
	return signExtend(v, 12)
}

func immB(raw uint32) int64 {
	v := uint64(raw)>>31&1<<12 |
		uint64(raw)>>7&1<<11 |
		uint64(raw)>>25&0x3f<<5 |
		uint64(raw)>>8&0xf<<1
	return signExtend(v, 13)
}

func immU(raw uint32) int64 { return int64(int32(raw & 0xfffff000)) }

func immJ(raw uint32) int64 {
	v := uint64(raw)>>31&1<<20 |
		uint64(raw)>>12&0xff<<12 |
		uint64(raw)>>20&1<<11 |
		uint64(raw)>>21&0x3ff<<1
	return signExtend(v, 21)
}

var loadOpByF3 = [8]Op{LB, LH, LW, LD, LBU, LHU, LWU, OpInvalid}
var roLoadOpByF3 = [8]Op{LBRO, LHRO, LWRO, LDRO, OpInvalid, OpInvalid, OpInvalid, OpInvalid}
var storeOpByF3 = [8]Op{SB, SH, SW, SD, OpInvalid, OpInvalid, OpInvalid, OpInvalid}
var branchOpByF3 = [8]Op{BEQ, BNE, OpInvalid, OpInvalid, BLT, BGE, BLTU, BGEU}

// rOpByFunct/rwOpByFunct are the decode-side inverses of the rOps and
// rwOps encode tables, indexed by funct3 and a compressed funct7 code
// (0x00 -> 0, 0x20 -> 1, 0x01 -> 2). Precomputing them keeps the
// register-register decode path table-driven instead of scanning a map
// per instruction.
var rOpByFunct, rwOpByFunct [8][3]Op

func f7Code(f7 uint32) int {
	switch f7 {
	case 0x00:
		return 0
	case 0x20:
		return 1
	case 0x01:
		return 2
	}
	return -1
}

func init() {
	for op, spec := range rOps {
		if spec.ok {
			rOpByFunct[spec.f3][f7Code(spec.f7)] = Op(op)
		}
	}
	for op, spec := range rwOps {
		if spec.ok {
			rwOpByFunct[spec.f3][f7Code(spec.f7)] = Op(op)
		}
	}
}

// Decode decodes one instruction from raw. Only the low 16 bits are
// consulted when the encoding is compressed. The returned Inst has
// Size set to 2 or 4; an unrecognized encoding yields Op == OpInvalid
// with Size 4 (or 2 for a compressed quadrant).
func Decode(raw uint32) Inst {
	if raw&3 != 3 {
		return decodeCompressed(uint16(raw))
	}
	in := Inst{Raw: raw, Size: 4}
	rd := Reg(raw >> 7 & 0x1f)
	rs1 := Reg(raw >> 15 & 0x1f)
	rs2 := Reg(raw >> 20 & 0x1f)
	f3 := raw >> 12 & 7
	f7 := raw >> 25 & 0x7f

	switch raw & 0x7f {
	case opcLUI:
		in.Op, in.Rd, in.Imm = LUI, rd, immU(raw)
	case opcAUIPC:
		in.Op, in.Rd, in.Imm = AUIPC, rd, immU(raw)
	case opcJAL:
		in.Op, in.Rd, in.Imm = JAL, rd, immJ(raw)
	case opcJALR:
		if f3 == 0 {
			in.Op, in.Rd, in.Rs1, in.Imm = JALR, rd, rs1, immI(raw)
		}
	case opcBranch:
		if op := branchOpByF3[f3]; op != OpInvalid {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immB(raw)
		}
	case opcLoad:
		if op := loadOpByF3[f3]; op != OpInvalid {
			in.Op, in.Rd, in.Rs1, in.Imm = op, rd, rs1, immI(raw)
		}
	case opcROLoad:
		if op := roLoadOpByF3[f3]; op != OpInvalid {
			in.Op, in.Rd, in.Rs1 = op, rd, rs1
			in.Key = uint16(raw >> 20 & MaxKey)
		}
	case opcStore:
		if op := storeOpByF3[f3]; op != OpInvalid {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immS(raw)
		}
	case opcOpImm:
		in.Rd, in.Rs1 = rd, rs1
		switch f3 {
		case 0:
			in.Op, in.Imm = ADDI, immI(raw)
		case 1:
			if f7&0x3e == 0 {
				in.Op, in.Imm = SLLI, int64(raw>>20&0x3f)
			}
		case 2:
			in.Op, in.Imm = SLTI, immI(raw)
		case 3:
			in.Op, in.Imm = SLTIU, immI(raw)
		case 4:
			in.Op, in.Imm = XORI, immI(raw)
		case 5:
			switch f7 & 0x3e {
			case 0:
				in.Op, in.Imm = SRLI, int64(raw>>20&0x3f)
			case 0x20:
				in.Op, in.Imm = SRAI, int64(raw>>20&0x3f)
			}
		case 6:
			in.Op, in.Imm = ORI, immI(raw)
		case 7:
			in.Op, in.Imm = ANDI, immI(raw)
		}
	case opcOpImmW:
		in.Rd, in.Rs1 = rd, rs1
		switch f3 {
		case 0:
			in.Op, in.Imm = ADDIW, immI(raw)
		case 1:
			if f7 == 0 {
				in.Op, in.Imm = SLLIW, int64(rs2)
			}
		case 5:
			switch f7 {
			case 0:
				in.Op, in.Imm = SRLIW, int64(rs2)
			case 0x20:
				in.Op, in.Imm = SRAIW, int64(rs2)
			}
		}
	case opcOp:
		if c := f7Code(f7); c >= 0 {
			if op := rOpByFunct[f3][c]; op != OpInvalid {
				in.Op, in.Rd, in.Rs1, in.Rs2 = op, rd, rs1, rs2
			}
		}
	case opcOpW:
		if c := f7Code(f7); c >= 0 {
			if op := rwOpByFunct[f3][c]; op != OpInvalid {
				in.Op, in.Rd, in.Rs1, in.Rs2 = op, rd, rs1, rs2
			}
		}
	case opcSystem:
		switch {
		case f3 == 0 && raw>>20 == 0 && rs1 == 0 && rd == 0:
			in.Op = ECALL
		case f3 == 0 && raw>>20 == 1 && rs1 == 0 && rd == 0:
			in.Op = EBREAK
		case f3 >= 1 && f3 <= 3:
			ops := [4]Op{OpInvalid, CSRRW, CSRRS, CSRRC}
			in.Op, in.Rd, in.Rs1, in.Imm = ops[f3], rd, rs1, int64(raw>>20)
		}
	case opcFence:
		if f3 == 0 {
			in.Op = FENCE
		}
	}
	return in
}
