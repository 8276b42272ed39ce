package isa

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		name string
	}{
		{Zero, "zero"}, {RA, "ra"}, {SP, "sp"}, {GP, "gp"},
		{A0, "a0"}, {A7, "a7"}, {S0, "s0"}, {T6, "t6"},
	}
	for _, c := range cases {
		if c.r.String() != c.name {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, c.r.String(), c.name)
		}
		got, ok := RegByName(c.name)
		if !ok || got != c.r {
			t.Errorf("RegByName(%q) = %v,%v, want %v", c.name, got, ok, c.r)
		}
	}
	if r, ok := RegByName("fp"); !ok || r != S0 {
		t.Errorf("RegByName(fp) = %v,%v, want s0", r, ok)
	}
	if r, ok := RegByName("x17"); !ok || r != A7 {
		t.Errorf("RegByName(x17) = %v,%v, want a7", r, ok)
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded")
	}
	if _, ok := RegByName("x32"); ok {
		t.Error("RegByName(x32) succeeded")
	}
}

// TestRegByNameSpellings pins exactly which spellings name a register:
// the ABI names, fp, and canonical x0-x31; nothing that merely starts
// like a numeric name.
func TestRegByNameSpellings(t *testing.T) {
	cases := []struct {
		name string
		r    Reg
		ok   bool
	}{
		{"zero", Zero, true}, {"ra", RA, true}, {"sp", SP, true}, {"gp", GP, true},
		{"tp", TP, true}, {"t0", T0, true}, {"t2", T2, true}, {"s0", S0, true},
		{"fp", S0, true}, {"s1", S1, true}, {"a0", A0, true}, {"a7", A7, true},
		{"s2", S2, true}, {"s11", S11, true}, {"t3", T3, true}, {"t6", T6, true},
		{"x0", Zero, true}, {"x9", S1, true}, {"x10", A0, true}, {"x19", S3, true},
		{"x20", S4, true}, {"x29", T4, true}, {"x30", T5, true}, {"x31", T6, true},
		{"", 0, false}, {"x", 0, false}, {"x32", 0, false}, {"x39", 0, false},
		{"x40", 0, false}, {"x99", 0, false}, {"x100", 0, false},
		{"x00", 0, false}, {"x01", 0, false}, {"x010", 0, false},
		{"x+5", 0, false}, {"x-1", 0, false}, {"x 5", 0, false},
		{"x10abc", 0, false}, {"x2junk", 0, false}, {"x1 ", 0, false}, {"x1a", 0, false},
		{"X1", 0, false}, {"A0", 0, false}, {"a8", 0, false}, {"s12", 0, false},
		{"t7", 0, false}, {" a0", 0, false}, {"a0 ", 0, false}, {"fp0", 0, false},
		{"zero1", 0, false}, {"pc", 0, false},
	}
	for _, c := range cases {
		r, ok := RegByName(c.name)
		if ok != c.ok || (ok && r != c.r) {
			t.Errorf("RegByName(%q) = %v,%v, want %v,%v", c.name, r, ok, c.r, c.ok)
		}
	}
	for i := 0; i < NumRegs; i++ {
		if r, ok := RegByName("x" + strconv.Itoa(i)); !ok || r != Reg(i) {
			t.Errorf("RegByName(x%d) = %v,%v", i, r, ok)
		}
		if r, ok := RegByName(Reg(i).String()); !ok || r != Reg(i) {
			t.Errorf("RegByName(%s) = %v,%v", Reg(i), r, ok)
		}
	}
}

func BenchmarkRegByName(b *testing.B) {
	names := []string{"a0", "sp", "s11", "x17", "fp", "t6", "zero", "bogus"}
	for i := 0; i < b.N; i++ {
		RegByName(names[i%len(names)])
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op, name := range opNames {
		got, ok := OpByName(name)
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v, want %v", name, got, ok, op)
		}
	}
	if _, ok := OpByName("ld.rw"); ok {
		t.Error("OpByName accepted unknown mnemonic")
	}
}

func TestOpPredicates(t *testing.T) {
	if !LDRO.IsROLoad() || !LDRO.IsLoad() {
		t.Error("ld.ro must be both a ROLoad and a load")
	}
	if LD.IsROLoad() {
		t.Error("ld must not be a ROLoad")
	}
	if !SD.IsStore() || SD.IsLoad() {
		t.Error("sd predicate wrong")
	}
	if !BEQ.IsBranch() || JAL.IsBranch() {
		t.Error("branch predicate wrong")
	}
	w, u := LWU.LoadWidth()
	if w != 4 || !u {
		t.Errorf("LWU width = %d,%v, want 4,true", w, u)
	}
	w, u = LDRO.LoadWidth()
	if w != 8 || u {
		t.Errorf("LDRO width = %d,%v, want 8,false", w, u)
	}
}

// fixed sample instructions with independently computed encodings.
func TestEncodeKnownValues(t *testing.T) {
	cases := []struct {
		in   Inst
		want uint32
	}{
		// addi a0, a0, 1 -> imm=1 rs1=10 f3=0 rd=10 opc=0010011
		{Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1}, 0x00150513},
		// add a0, a1, a2
		{Inst{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, 0x00c58533},
		// lui a0, 0x11 -> imm 0x11000
		{Inst{Op: LUI, Rd: A0, Imm: 0x11000}, 0x00011537},
		// ld a0, 8(sp)
		{Inst{Op: LD, Rd: A0, Rs1: SP, Imm: 8}, 0x00813503},
		// sd a0, -8(sp)
		{Inst{Op: SD, Rs1: SP, Rs2: A0, Imm: -8}, 0xfea13c23},
		// jalr ra, 0(a0)
		{Inst{Op: JALR, Rd: RA, Rs1: A0, Imm: 0}, 0x000500e7},
		// ecall
		{Inst{Op: ECALL}, 0x00000073},
		// ebreak
		{Inst{Op: EBREAK}, 0x00100073},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 4096},        // imm too large
		{Op: LUI, Rd: A0, Imm: 0x123},                 // low bits set
		{Op: JAL, Rd: RA, Imm: 3},                     // odd target
		{Op: JAL, Rd: RA, Imm: 1 << 21},               // out of range
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 1 << 13},     // out of range
		{Op: SLLI, Rd: A0, Rs1: A0, Imm: 64},          // shamt too large
		{Op: SLLIW, Rd: A0, Rs1: A0, Imm: 32},         // shamt too large
		{Op: LDRO, Rd: A0, Rs1: A0, Key: MaxKey + 1},  // key too large
		{Op: LD, Rd: A0, Rs1: SP, Imm: 1 << 12},       // offset too large
		{Op: SD, Rs1: SP, Rs2: A0, Imm: -(1<<11 + 1)}, // offset too small
		{Op: OpInvalid},
	}
	for _, c := range cases {
		if _, err := Encode(c); err == nil {
			t.Errorf("Encode(%v) succeeded, want error", c)
		}
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncode did not panic on bad operand")
		}
	}()
	MustEncode(Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1 << 20})
}

func normalize(in Inst) Inst {
	in.Raw = 0
	in.Size = 0
	return in
}

// TestEncodeDecodeRoundTrip exercises every opcode once with simple
// operands.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: LUI, Rd: A0, Imm: 0x7ffff000},
		{Op: AUIPC, Rd: T0, Imm: -4096},
		{Op: JAL, Rd: RA, Imm: -2048},
		{Op: JALR, Rd: RA, Rs1: A0, Imm: 16},
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: -8},
		{Op: BNE, Rs1: S0, Rs2: S1, Imm: 4094},
		{Op: BLT, Rs1: T0, Rs2: T1, Imm: 64},
		{Op: BGE, Rs1: A2, Rs2: A3, Imm: -4096},
		{Op: BLTU, Rs1: A4, Rs2: A5, Imm: 2},
		{Op: BGEU, Rs1: A6, Rs2: A7, Imm: 100},
		{Op: LB, Rd: A0, Rs1: SP, Imm: -1},
		{Op: LH, Rd: A1, Rs1: GP, Imm: 2},
		{Op: LW, Rd: A2, Rs1: TP, Imm: 4},
		{Op: LD, Rd: A3, Rs1: S0, Imm: 2040},
		{Op: LBU, Rd: A4, Rs1: S1, Imm: 0},
		{Op: LHU, Rd: A5, Rs1: T3, Imm: -2048},
		{Op: LWU, Rd: A6, Rs1: T4, Imm: 12},
		{Op: SB, Rs1: SP, Rs2: A0, Imm: -4},
		{Op: SH, Rs1: GP, Rs2: A1, Imm: 6},
		{Op: SW, Rs1: S2, Rs2: A2, Imm: 1000},
		{Op: SD, Rs1: S3, Rs2: A3, Imm: -2000},
		{Op: ADDI, Rd: A0, Rs1: A1, Imm: -7},
		{Op: SLTI, Rd: A1, Rs1: A2, Imm: 5},
		{Op: SLTIU, Rd: A2, Rs1: A3, Imm: 9},
		{Op: XORI, Rd: A3, Rs1: A4, Imm: -1},
		{Op: ORI, Rd: A4, Rs1: A5, Imm: 0x55},
		{Op: ANDI, Rd: A5, Rs1: A6, Imm: 0xf},
		{Op: SLLI, Rd: A0, Rs1: A0, Imm: 63},
		{Op: SRLI, Rd: A1, Rs1: A1, Imm: 1},
		{Op: SRAI, Rd: A2, Rs1: A2, Imm: 32},
		{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2},
		{Op: SUB, Rd: A1, Rs1: A2, Rs2: A3},
		{Op: SLL, Rd: A2, Rs1: A3, Rs2: A4},
		{Op: SLT, Rd: A3, Rs1: A4, Rs2: A5},
		{Op: SLTU, Rd: A4, Rs1: A5, Rs2: A6},
		{Op: XOR, Rd: A5, Rs1: A6, Rs2: A7},
		{Op: SRL, Rd: A6, Rs1: A7, Rs2: S2},
		{Op: SRA, Rd: A7, Rs1: S2, Rs2: S3},
		{Op: OR, Rd: S2, Rs1: S3, Rs2: S4},
		{Op: AND, Rd: S3, Rs1: S4, Rs2: S5},
		{Op: ADDIW, Rd: A0, Rs1: A1, Imm: -128},
		{Op: SLLIW, Rd: A1, Rs1: A2, Imm: 31},
		{Op: SRLIW, Rd: A2, Rs1: A3, Imm: 0},
		{Op: SRAIW, Rd: A3, Rs1: A4, Imm: 15},
		{Op: ADDW, Rd: A0, Rs1: A1, Rs2: A2},
		{Op: SUBW, Rd: A1, Rs1: A2, Rs2: A3},
		{Op: SLLW, Rd: A2, Rs1: A3, Rs2: A4},
		{Op: SRLW, Rd: A3, Rs1: A4, Rs2: A5},
		{Op: SRAW, Rd: A4, Rs1: A5, Rs2: A6},
		{Op: ECALL},
		{Op: EBREAK},
		{Op: FENCE},
		{Op: CSRRW, Rd: A0, Rs1: A1, Imm: 0x300},
		{Op: CSRRS, Rd: A1, Rs1: Zero, Imm: 0xc00},
		{Op: CSRRC, Rd: A2, Rs1: A3, Imm: 0x305},
		{Op: MUL, Rd: A0, Rs1: A1, Rs2: A2},
		{Op: MULH, Rd: A1, Rs1: A2, Rs2: A3},
		{Op: MULHSU, Rd: A2, Rs1: A3, Rs2: A4},
		{Op: MULHU, Rd: A3, Rs1: A4, Rs2: A5},
		{Op: DIV, Rd: A4, Rs1: A5, Rs2: A6},
		{Op: DIVU, Rd: A5, Rs1: A6, Rs2: A7},
		{Op: REM, Rd: A6, Rs1: A7, Rs2: S2},
		{Op: REMU, Rd: A7, Rs1: S2, Rs2: S3},
		{Op: MULW, Rd: A0, Rs1: A1, Rs2: A2},
		{Op: DIVW, Rd: A1, Rs1: A2, Rs2: A3},
		{Op: DIVUW, Rd: A2, Rs1: A3, Rs2: A4},
		{Op: REMW, Rd: A3, Rs1: A4, Rs2: A5},
		{Op: REMUW, Rd: A4, Rs1: A5, Rs2: A6},
		{Op: LBRO, Rd: A0, Rs1: A1, Key: 0},
		{Op: LHRO, Rd: A1, Rs1: A2, Key: 7},
		{Op: LWRO, Rd: A2, Rs1: A3, Key: 111},
		{Op: LDRO, Rd: A3, Rs1: A4, Key: MaxKey},
	}
	for _, c := range cases {
		raw, err := Encode(c)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c, err)
		}
		got := Decode(raw)
		if got.Size != 4 {
			t.Errorf("Decode(%v).Size = %d, want 4", c, got.Size)
		}
		// Zero/ALU ops leave unused register fields at zero in both.
		if normalize(got) != normalize(c) {
			t.Errorf("roundtrip %v: got %+v want %+v", c.Op, normalize(got), normalize(c))
		}
	}
}

// Property: any ld.ro with in-range operands survives an
// encode/decode roundtrip with its key intact.
func TestQuickROLoadRoundTrip(t *testing.T) {
	f := func(rd, rs1 uint8, key uint16, which uint8) bool {
		ops := [4]Op{LBRO, LHRO, LWRO, LDRO}
		in := Inst{
			Op:  ops[which%4],
			Rd:  Reg(rd % 32),
			Rs1: Reg(rs1 % 32),
			Key: key & MaxKey,
		}
		raw, err := Encode(in)
		if err != nil {
			return false
		}
		out := Decode(raw)
		return normalize(out) == normalize(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: branch immediates roundtrip through the scattered B-type
// encoding.
func TestQuickBranchImmRoundTrip(t *testing.T) {
	f := func(rs1, rs2 uint8, imm int16) bool {
		off := (int64(imm) % 4096) &^ 1 // force even, within ±4 KiB
		in := Inst{Op: BNE, Rs1: Reg(rs1 % 32), Rs2: Reg(rs2 % 32), Imm: off}
		raw, err := Encode(in)
		if err != nil {
			return false
		}
		return Decode(raw).Imm == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: JAL immediates roundtrip through the scattered J-type
// encoding.
func TestQuickJALImmRoundTrip(t *testing.T) {
	f := func(rd uint8, imm int32) bool {
		off := (int64(imm) % (1 << 20)) &^ 1
		in := Inst{Op: JAL, Rd: Reg(rd % 32), Imm: off}
		raw, err := Encode(in)
		if err != nil {
			return false
		}
		out := Decode(raw)
		return out.Op == JAL && out.Imm == off && out.Rd == in.Rd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary 32-bit words never panics and marks
// unknown encodings invalid rather than misdecoding.
func TestQuickDecodeTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		raw := rng.Uint32()
		in := Decode(raw)
		if raw&3 == 3 && in.Size != 4 {
			t.Fatalf("Decode(%#x).Size = %d, want 4", raw, in.Size)
		}
		if raw&3 != 3 && in.Size != 2 {
			t.Fatalf("Decode(%#x).Size = %d, want 2", raw, in.Size)
		}
	}
}

// Exhaustive 16-bit sweep: every possible compressed parcel must
// decode without panicking, and every parcel that decodes to a valid
// instruction must re-encode (via TryCompress of the decoded form)
// back to itself when TryCompress supports that form — a strong
// consistency check between the two RVC tables.
func TestExhaustiveCompressedSweep(t *testing.T) {
	for raw := 0; raw < 1<<16; raw++ {
		if raw&3 == 3 {
			continue // 32-bit space
		}
		in := decodeCompressed(uint16(raw))
		if in.Size != 2 {
			t.Fatalf("%#04x: size = %d", raw, in.Size)
		}
		if in.Op == OpInvalid {
			continue
		}
		re, ok := TryCompress(in)
		if !ok {
			continue // decode-only forms (c.addi4spn, c.lui, ...) are fine
		}
		back := decodeCompressed(re)
		a, b := in, back
		a.Raw, b.Raw = 0, 0
		if a != b {
			t.Fatalf("%#04x: decode %+v -> compress %#04x -> decode %+v", raw, in, re, back)
		}
	}
}

func TestDecodeCompressedKnown(t *testing.T) {
	// c.ld.ro a0, (a1), 21: f3=100, key=10101
	raw, ok := TryCompress(Inst{Op: LDRO, Rd: A0, Rs1: A1, Key: 21})
	if !ok {
		t.Fatal("TryCompress(c.ld.ro) failed")
	}
	in := decodeCompressed(raw)
	if in.Op != LDRO || in.Rd != A0 || in.Rs1 != A1 || in.Key != 21 {
		t.Errorf("c.ld.ro decode = %+v", in)
	}
	if in.Size != 2 {
		t.Errorf("compressed size = %d, want 2", in.Size)
	}
}

func TestTryCompressRejections(t *testing.T) {
	cases := []Inst{
		{Op: LDRO, Rd: A0, Rs1: A1, Key: 32},     // key too large for c.ld.ro
		{Op: LDRO, Rd: T6, Rs1: A1, Key: 1},      // rd not a C register
		{Op: LD, Rd: A0, Rs1: A1, Imm: 7},        // unaligned offset
		{Op: LD, Rd: A0, Rs1: A1, Imm: 256},      // offset too large
		{Op: ADDI, Rd: A0, Rs1: A1, Imm: 1},      // rd != rs1, not c.li
		{Op: SUB, Rd: A0, Rs1: A0, Rs2: A1},      // no c.sub for non-prime regs? a0 is prime; but rd==rs1 handled
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 4},      // rs2 != zero
		{Op: JALR, Rd: RA, Rs1: A0, Imm: 8},      // nonzero offset
		{Op: SLLI, Rd: Zero, Rs1: Zero, Imm: 1},  // rd == x0
		{Op: ADD, Rd: Zero, Rs1: Zero, Rs2: A1},  // rd == x0
		{Op: MUL, Rd: A0, Rs1: A1, Rs2: A2},      // no compressed mul
		{Op: LWU, Rd: A0, Rs1: A1, Imm: 0},       // no compressed lwu
		{Op: SD, Rs1: A1, Rs2: A0, Imm: 257},     // unaligned
		{Op: ADDIW, Rd: Zero, Rs1: Zero, Imm: 1}, // rd == x0
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 100},    // imm too large for c.addi
		{Op: LBRO, Rd: A0, Rs1: A1, Key: 1},      // only ld.ro has a compressed form
	}
	for _, c := range cases {
		if c.Op == SUB {
			continue // documented: SUB on C registers does compress; skip
		}
		if _, ok := TryCompress(c); ok {
			t.Errorf("TryCompress(%+v) succeeded, want rejection", c)
		}
	}
}

// Property: every successful TryCompress decodes back to an equivalent
// instruction.
func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(rd, rs1, rs2 uint8, imm int16, key uint16, sel uint8) bool {
		var in Inst
		switch sel % 6 {
		case 0:
			in = Inst{Op: LDRO, Rd: Reg(rd % 32), Rs1: Reg(rs1 % 32), Key: key % 64}
		case 1:
			in = Inst{Op: LD, Rd: Reg(rd % 32), Rs1: Reg(rs1 % 32), Imm: int64(imm) & 0xff &^ 7}
		case 2:
			in = Inst{Op: SD, Rs1: Reg(rs1 % 32), Rs2: Reg(rs2 % 32), Imm: int64(imm) & 0xff &^ 7}
		case 3:
			in = Inst{Op: ADDI, Rd: Reg(rd % 32), Rs1: Reg(rd % 32), Imm: int64(imm % 32)}
		case 4:
			in = Inst{Op: ADD, Rd: Reg(rd % 32), Rs1: Reg(rd % 32), Rs2: Reg(rs2%31) + 1}
		case 5:
			in = Inst{Op: SLLI, Rd: Reg(rd % 32), Rs1: Reg(rd % 32), Imm: int64(imm%63) + 1}
		}
		raw, ok := TryCompress(in)
		if !ok {
			return true // rejection is always acceptable
		}
		out := decodeCompressed(raw)
		if out.Op != in.Op && !(in.Op == ADD && out.Op == ADD) {
			return false
		}
		// Compare semantics field by field.
		return out.Rd == in.Rd && out.Rs1 == in.Rs1 && out.Rs2 == in.Rs2 &&
			out.Imm == in.Imm && out.Key == in.Key
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: LDRO, Rd: A0, Rs1: A0, Key: 111}, "ld.ro a0, (a0), 111"},
		{Inst{Op: LD, Rd: A0, Rs1: GP, Imm: -1608}, "ld a0, -1608(gp)"},
		{Inst{Op: SD, Rs1: GP, Rs2: A0, Imm: -1608}, "sd a0, -1608(gp)"},
		{Inst{Op: JALR, Rd: Zero, Rs1: A0}, "jalr zero, 0(a0)"},
		{Inst{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 16}, "beq a0, a1, 16"},
		{Inst{Op: LUI, Rd: A0, Imm: 0x11000}, "lui a0, 0x11"},
		{Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 604}, "addi a0, a0, 604"},
		{Inst{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, "add a0, a1, a2"},
		{Inst{Op: ECALL}, "ecall"},
		{Inst{Op: OpInvalid, Raw: 0xdeadbeef}, ".word 0xdeadbeef"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func BenchmarkDecode32(b *testing.B) {
	raw := MustEncode(Inst{Op: LDRO, Rd: A0, Rs1: A1, Key: 111})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(raw)
	}
}

func BenchmarkDecodeCompressed(b *testing.B) {
	raw, _ := TryCompress(Inst{Op: LDRO, Rd: A0, Rs1: A1, Key: 21})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(uint32(raw))
	}
}
