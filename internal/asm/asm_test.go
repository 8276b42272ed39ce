package asm

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"roload/internal/isa"
)

func assembleOK(t *testing.T, src string) *Image {
	t.Helper()
	img, err := Assemble(src, DefaultOptions())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func textWords(t *testing.T, img *Image) []uint32 {
	t.Helper()
	sec, ok := img.FindSection(".text")
	if !ok {
		t.Fatal("no .text")
	}
	words := make([]uint32, len(sec.Data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(sec.Data[i*4:])
	}
	return words
}

func TestBasicProgram(t *testing.T) {
	img := assembleOK(t, `
	.text
	.globl _start
_start:
	li a0, 42
	ecall
`)
	words := textWords(t, img)
	if len(words) != 2 {
		t.Fatalf("words = %d", len(words))
	}
	in := isa.Decode(words[0])
	if in.Op != isa.ADDI || in.Rd != isa.A0 || in.Imm != 42 {
		t.Errorf("inst0 = %v", in)
	}
	if isa.Decode(words[1]).Op != isa.ECALL {
		t.Errorf("inst1 = %v", isa.Decode(words[1]))
	}
	if img.Entry != img.Symbols["_start"] {
		t.Errorf("entry = %#x", img.Entry)
	}
}

func TestROLoadSyntax(t *testing.T) {
	img := assembleOK(t, `
_start:
	ld.ro a0, (a1), 111
	lw.ro a2, (a3), 0
	ecall
`)
	words := textWords(t, img)
	in := isa.Decode(words[0])
	if in.Op != isa.LDRO || in.Rd != isa.A0 || in.Rs1 != isa.A1 || in.Key != 111 {
		t.Errorf("ld.ro = %+v", in)
	}
	in = isa.Decode(words[1])
	if in.Op != isa.LWRO || in.Key != 0 {
		t.Errorf("lw.ro = %+v", in)
	}
}

func TestKeyedSection(t *testing.T) {
	img := assembleOK(t, `
	.text
_start:
	la a0, gfpt_foo
	ld.ro a0, (a0), 111
	ecall
	.section .rodata.key.111
gfpt_foo:
	.quad _start
`)
	sec, ok := img.FindSection(".rodata.key.111")
	if !ok {
		t.Fatal("keyed section missing")
	}
	if sec.Key != 111 {
		t.Errorf("key = %d", sec.Key)
	}
	if sec.Perm != PermRead {
		t.Errorf("perm = %v", sec.Perm)
	}
	// The .quad must hold the address of _start.
	got := binary.LittleEndian.Uint64(sec.Data)
	if got != img.Symbols["_start"] {
		t.Errorf("gfpt_foo = %#x, want %#x", got, img.Symbols["_start"])
	}
}

func TestListing3Shape(t *testing.T) {
	// The exact hardening shape from Listing 2+3 of the paper.
	img := assembleOK(t, `
	.text
_start:
	la a0, gfpt_foo
	sd a0, -1608(gp)   # func1 = &gfpt entry
	ld a0, -1608(gp)   # func1
	ld.ro a0, (a0), 111
	jalr a0
	ecall
foo:
	ret
	.section .rodata.key.111
gfpt_foo: .quad foo
`)
	words := textWords(t, img)
	var ops []isa.Op
	for _, w := range words {
		ops = append(ops, isa.Decode(w).Op)
	}
	want := []isa.Op{isa.LUI, isa.ADDIW, isa.SD, isa.LD, isa.LDRO, isa.JALR, isa.ECALL, isa.JALR}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestBranchesAndLabels(t *testing.T) {
	img := assembleOK(t, `
_start:
	li a0, 0
	li a1, 10
loop:
	addi a0, a0, 1
	blt a0, a1, loop
	beqz a0, _start
	bnez a0, done
	nop
done:
	ecall
`)
	words := textWords(t, img)
	// blt is the 4th word (index 3): target = loop (index 2), offset -4.
	in := isa.Decode(words[3])
	if in.Op != isa.BLT || in.Imm != -4 {
		t.Errorf("blt = %+v", in)
	}
	in = isa.Decode(words[4]) // beqz a0, _start -> offset -16
	if in.Op != isa.BEQ || in.Rs2 != isa.Zero || in.Imm != -16 {
		t.Errorf("beqz = %+v", in)
	}
	in = isa.Decode(words[5]) // bnez a0, done -> offset +8
	if in.Op != isa.BNE || in.Imm != 8 {
		t.Errorf("bnez = %+v", in)
	}
}

func TestCallRetJump(t *testing.T) {
	img := assembleOK(t, `
_start:
	call fn
	j end
fn:
	ret
end:
	ecall
`)
	words := textWords(t, img)
	in := isa.Decode(words[0])
	if in.Op != isa.JAL || in.Rd != isa.RA || in.Imm != 8 {
		t.Errorf("call = %+v", in)
	}
	in = isa.Decode(words[1])
	if in.Op != isa.JAL || in.Rd != isa.Zero || in.Imm != 8 {
		t.Errorf("j = %+v", in)
	}
	in = isa.Decode(words[2])
	if in.Op != isa.JALR || in.Rd != isa.Zero || in.Rs1 != isa.RA {
		t.Errorf("ret = %+v", in)
	}
}

func TestDataDirectives(t *testing.T) {
	img := assembleOK(t, `
_start:
	ecall
	.data
vals:
	.byte 1, 2, 3
	.half 0x1234
	.word -1
	.quad 0x123456789abcdef0
msg:
	.asciz "hi"
	.align 3
aligned:
	.quad vals
	.bss
buf:
	.space 128
`)
	data, _ := img.FindSection(".data")
	if data.Data[0] != 1 || data.Data[1] != 2 || data.Data[2] != 3 {
		t.Errorf("bytes = %v", data.Data[:3])
	}
	if binary.LittleEndian.Uint16(data.Data[3:]) != 0x1234 {
		t.Error("half wrong")
	}
	if binary.LittleEndian.Uint32(data.Data[5:]) != 0xffffffff {
		t.Error("word wrong")
	}
	if binary.LittleEndian.Uint64(data.Data[9:]) != 0x123456789abcdef0 {
		t.Error("quad wrong")
	}
	msgOff := img.Symbols["msg"] - data.VA
	if string(data.Data[msgOff:msgOff+3]) != "hi\x00" {
		t.Error("asciz wrong")
	}
	alignedOff := img.Symbols["aligned"] - data.VA
	if alignedOff%8 != 0 {
		t.Errorf("aligned at %d", alignedOff)
	}
	if binary.LittleEndian.Uint64(data.Data[alignedOff:]) != img.Symbols["vals"] {
		t.Error("quad symbol wrong")
	}
	bss, ok := img.FindSection(".bss")
	if !ok || bss.Size != 128 || bss.Data != nil {
		t.Errorf("bss = %+v", bss)
	}
}

func TestSeparateCodeLayout(t *testing.T) {
	// Code and read-only data must never share a page (-z separate-code).
	img := assembleOK(t, `
_start:
	ecall
	.rodata
c1: .quad 1
	.section .rodata.key.5
c2: .quad 2
	.section .rodata.key.6
c3: .quad 3
`)
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, s := range img.Sections {
		page := s.VA >> 12
		if other, dup := seen[page]; dup {
			t.Errorf("sections %s and %s share page %#x", other, s.Name, page)
		}
		seen[page] = s.Name
	}
	// Two keyed sections must have different keys on different pages.
	s5, _ := img.FindSection(".rodata.key.5")
	s6, _ := img.FindSection(".rodata.key.6")
	if s5.Key != 5 || s6.Key != 6 {
		t.Errorf("keys = %d, %d", s5.Key, s6.Key)
	}
}

func TestLiWidths(t *testing.T) {
	img := assembleOK(t, `
_start:
	li a0, 2047
	li a1, -2048
	li a2, 2048
	li a3, 0x7fffffff
	ecall
`)
	words := textWords(t, img)
	// 2047 and -2048: 1 inst each. 2048 and 0x7fffffff: 2 each. Plus ecall.
	if len(words) != 1+1+2+2+1 {
		t.Fatalf("words = %d", len(words))
	}
	if in := isa.Decode(words[0]); in.Op != isa.ADDI || in.Imm != 2047 {
		t.Errorf("li 2047 = %v", in)
	}
	in := isa.Decode(words[2])
	if in.Op != isa.LUI {
		t.Errorf("li 2048 starts with %v", in.Op)
	}
}

// TestLiHiLo: li sizes %hi/%lo operands from the applied value, in
// both passes, so %lo(0x7ff800) = -2048 is one addi and
// %hi(0x7ff800) = 0x800000 a lui+addiw pair.
func TestLiHiLo(t *testing.T) {
	words := textWords(t, assembleOK(t, "_start:\n\tli a0, %lo(0x7ff800)\n\tli a1, %hi(0x7ff800)\n\tecall\n"))
	if len(words) != 1+2+1 {
		t.Fatalf("words = %d, want 4", len(words))
	}
	if in := isa.Decode(words[0]); in.Op != isa.ADDI || in.Rs1 != isa.Zero || in.Imm != -2048 {
		t.Errorf("li %%lo = %v", in)
	}
	if in := isa.Decode(words[1]); in.Op != isa.LUI || in.Imm != 0x800000 {
		t.Errorf("li %%hi = %v", in)
	}
}

func TestPseudoExpansions(t *testing.T) {
	img := assembleOK(t, `
_start:
	mv a0, a1
	not a2, a3
	neg a4, a5
	seqz a6, a7
	snez s2, s3
	sext.w s4, s5
	jr ra
	bgt a0, a1, _start
	ble a0, a1, _start
	ecall
`)
	words := textWords(t, img)
	checks := []struct {
		i  int
		op isa.Op
	}{
		{0, isa.ADDI}, {1, isa.XORI}, {2, isa.SUB}, {3, isa.SLTIU},
		{4, isa.SLTU}, {5, isa.ADDIW}, {6, isa.JALR}, {7, isa.BLT}, {8, isa.BGE},
	}
	for _, c := range checks {
		if in := isa.Decode(words[c.i]); in.Op != c.op {
			t.Errorf("word %d = %v, want %v", c.i, in.Op, c.op)
		}
	}
	// bgt swaps operands.
	in := isa.Decode(words[7])
	if in.Rs1 != isa.A1 || in.Rs2 != isa.A0 {
		t.Errorf("bgt operands = %v, %v", in.Rs1, in.Rs2)
	}
}

// TestSyntaxErrors pins the exact text of every rejection, including
// which error wins when a source has several: pass-1 errors (directives,
// labels, branch operands, li) are reported in source order before any
// pass-2 error, and pass-2 errors in image order (.text before .data).
// The HTTP service returns these messages to clients verbatim.
func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown inst", "_start:\n\tfoo a0, a1\n", "asm: line 2: unknown instruction \"foo\""},
		{"bad third ALU register reads as a symbol", "_start:\n\tadd a0, a1, q9\n", "asm: line 2: undefined symbol \"q9\""},
		{"undefined symbol", "_start:\n\tla a0, missing\n", "asm: line 2: undefined symbol \"missing\""},
		{"redefined label", "a:\na:\n\tecall\n", "asm: line 2: symbol \"a\" redefined"},
		{"bad key", "_start:\n\tld.ro a0, (a1), 9999\n", "asm: line 2: bad key \"9999\""},
		{"bad key section", ".section .rodata.key.99999\nx: .quad 1\n", "asm: line 1: invalid section key \"99999\""},
		{"unknown directive", ".bogus 12\n", "asm: line 1: unknown directive \".bogus\""},
		{"wrong operand count", "_start:\n\tadd a0, a1\n", "asm: line 2: add needs 3 operands"},
		{"roload with offset", "_start:\n\tld.ro a0, 8(a1), 3\n", "asm: line 2: ld.ro address operand must be (reg), got \"8(a1)\""},
		{"branch out of range", "_start:\n\tbeq a0, a1, 100000\n", "asm: line 2: branch target out of range: isa: cannot encode beq: imm=100000 must be even and fit 13 bits"},
		{"ld.ro missing parens", "_start:\n\tld.ro a0, a1, 3\n", "asm: line 2: ld.ro address operand must be (reg), got \"a1\""},
		{"bad string", "_start:\n\tecall\n.data\n.asciz bogus\n", "asm: line 4: bad string \"bogus\""},
		{"writable keyed section would fail validate", ".section .rodata.key.banana\n", "asm: line 1: invalid section key \"banana\""},
		{"no entry", "foo:\n\tecall\n", "asm: entry symbol \"_start\" not defined"},
		{"bad memory operand", "_start:\n\tld a0, a1\n", "asm: line 2: bad memory operand \"a1\""},
		{"bad memory register", "_start:\n\tsd a0, 8( q9 )\n", "asm: line 2: bad register \" q9 \""},
		{"bad memory offset", "_start:\n\tld a0, 8+(a1)\n", "asm: line 2: cannot parse expression \"8+\""},
		{"undefined memory offset", "_start:\n\tld a0, missing(a1)\n", "asm: line 2: undefined symbol \"missing\""},
		{"jalr bad memory operand", "_start:\n\tjalr a0, a1\n", "asm: line 2: bad memory operand \"a1\""},
		{"li operand count", "_start:\n\tli a0\n", "asm: line 2: li needs 2 operands"},
		{"la operand count", "_start:\n\tla a0, x, y\n", "asm: line 2: la needs 2 operands, got 3"},
		{"mv operand count", "_start:\n\tmv a0\n", "asm: line 2: mv needs 2 operands, got 1"},
		{"j operand count", "_start:\n\tj\n", "asm: line 2: j needs 1 operands, got 0"},
		{"call operand count", "_start:\n\tcall a, b\n", "asm: line 2: call needs 1 operands, got 2"},
		{"jr operand count", "_start:\n\tjr a0, a1\n", "asm: line 2: jr needs 1 operands, got 2"},
		{"jal operand count", "_start:\n\tjal a0, a1, a2\n", "asm: line 2: jal needs 2 operands, got 3"},
		{"load operand count", "_start:\n\tld a0\n", "asm: line 2: ld needs 2 operands, got 1"},
		{"store operand count", "_start:\n\tsd a0, 0(sp), 1\n", "asm: line 2: sd needs 2 operands, got 3"},
		{"lui operand count", "_start:\n\tlui a0\n", "asm: line 2: lui needs 2 operands, got 1"},
		{"csr operand count", "_start:\n\tcsrrw a0, 1\n", "asm: line 2: csrrw needs 3 operands, got 2"},
		{"roload operand count", "_start:\n\tld.ro a0, (a1)\n", "asm: line 2: ld.ro needs 3 operands, got 2"},
		{"branch operand count", "_start:\n\tbeq a0, a1\n", "asm: line 2: beq needs 3 operands, got 2"},
		{"branch pseudo operand count", "_start:\n\tbeqz a0\n", "asm: line 2: beqz needs 2 operands, got 1"},
		{"bad CSR", "_start:\n\tcsrrw a0, 0x1000, a1\n", "asm: line 2: bad CSR \"0x1000\""},
		{"bad CSR name", "_start:\n\tcsrrs a0, cycle, zero\n", "asm: line 2: bad CSR \"cycle\""},
		{"undefined branch target", "_start:\n\tbeq a0, a1, nowhere\n", "asm: line 2: undefined symbol \"nowhere\""},
		{"undefined jump target", "_start:\n\tj nowhere\n", "asm: line 2: undefined symbol \"nowhere\""},
		{"bad branch register", "_start:\n\tbgt a0, q9, _start\n", "asm: line 2: bad register \"q9\""},
		{"bad immediate", "_start:\n\taddi a0, a1, 5000\n", "asm: line 2: isa: cannot encode addi: imm=5000 must fit 12 bits"},
		{"bad offset", "_start:\n\tli a0, foo+bar\n", "asm: line 2: bad offset in \"foo+bar\""},
		{"empty expression", "_start:\n\tli a0, %hi()\n", "asm: line 2: empty expression"},
		{"unparsable expression", "_start:\n\taddi a0, a1, @x\n", "asm: line 2: cannot parse expression \"@x\""},
		{"lui undefined", "_start:\n\tlui a0, %hi(missing)\n", "asm: line 2: undefined symbol \"missing\""},
		{"bad alignment", "_start:\n\t.align 13\n", "asm: line 2: bad alignment \"13\""},
		{"bad size", ".bss\n\t.space lots\n", "asm: line 2: bad size \"lots\""},
		{"empty quad", ".data\n\t.quad\n", "asm: line 2: .quad needs at least one value"},
		{"unknown section", ".section .foo\n", "asm: line 1: unknown section \".foo\""},
		{"undefined data symbol", "_start:\n\tecall\n.data\n\t.quad missing\n", "asm: line 4: undefined symbol \"missing\""},
		{"later bad register beats earlier undefined symbol (pass 1)", "_start:\n\tla a0, missing\n\tbeq q9, a0, _start\n", "asm: line 3: bad register \"q9\""},
		{"earlier undefined symbol beats later bad register (pass 2)", "_start:\n\tla a0, missing\n\tadd a0, a1, q9\n", "asm: line 2: undefined symbol \"missing\""},
		{"text errors before data errors", ".data\n\t.quad missing\n.text\n_start:\n\tadd a0, a1, q9\n", "asm: line 5: undefined symbol \"q9\""},
		{"tab after mnemonic", "_start:\n\tadd\ta0, a1, a2\n", "asm: line 2: unknown instruction \"add\\ta0,\""},
		{"no at pseudo", "_start:\n\tld.at a0, x\n", "asm: line 2: unknown instruction \"ld.at\""},
		{"R-type given an immediate", "_start:\n\tadd a0, a1, 5\n", "asm: line 2: add expected register as third operand, got value 5"},
		{"R-type given a symbol", "_start:\n\tsub a0, a1, _start\n", "asm: line 2: sub expected register as third operand, got value 65536"},
		{"I-type given a register", "_start:\n\taddi a0, a1, a2\n", "asm: line 2: addi expected immediate as third operand, got register a2"},
		{"shift given a register", "_start:\n\tslliw a0, a1, t0\n", "asm: line 2: slliw expected immediate as third operand, got register t0"},
		{"bad first register", "_start:\n\tadd a0, q9, a2\n", "asm: line 2: bad register \"q9\""},
		{"bad key register", "_start:\n\tld.ro a0, (q9), 3\n", "asm: line 2: bad register \"q9\""},
		{"not operand count", "_start:\n\tnot a0\n", "asm: line 2: not needs 2 operands, got 1"},
		{"sext.w operand count", "_start:\n\tsext.w\n", "asm: line 2: sext.w needs 2 operands, got 0"},
		// Register names are the ABI names, fp, and canonical x0-x31
		// only; a name that merely starts like xN is not a register.
		{"lax register suffix", "_start:\n\tadd a0, x10abc, a2\n", "asm: line 2: bad register \"x10abc\""},
		{"lax register sign", "_start:\n\tmv a0, x+5\n", "asm: line 2: bad register \"x+5\""},
		{"lax register in memory operand", "_start:\n\tld a0, 8(x2junk)\n", "asm: line 2: bad register \"x2junk\""},
		{"lax register leading zero", "_start:\n\tadd a0, x010, a1\n", "asm: line 2: bad register \"x010\""},
	}
	for _, c := range cases {
		_, err := Assemble(c.src, DefaultOptions())
		if err == nil {
			t.Errorf("%s: assembled without error", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err.Error(), c.want)
		}
	}
}

// TestLaxInputsStillAccepted pins inputs the assembler accepts although
// they are loose: uppercase mnemonics and extra operands on one-operand
// pseudos.
func TestLaxInputsStillAccepted(t *testing.T) {
	for _, src := range []string{
		"_start:\n\tADD a0, a1, a2\n",
		"_start:\n\tnot a0, a1, a2\n\tecall\n",
		"_start:\n\tret a0\n\tnop 1, 2\n\tecall x\n",
	} {
		if _, err := Assemble(src, DefaultOptions()); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	img := assembleOK(t, `
# full-line comment
_start:	li a0, 1  # trailing comment
	ecall // C++-style
`)
	if len(textWords(t, img)) != 2 {
		t.Error("comment handling changed instruction count")
	}
}

func TestHiLoRelocation(t *testing.T) {
	img := assembleOK(t, `
_start:
	lui a0, %hi(value)
	addi a0, a0, %lo(value)
	ld a1, 0(a0)
	ecall
	.data
value: .quad 7
`)
	words := textWords(t, img)
	lui := isa.Decode(words[0])
	addi := isa.Decode(words[1])
	addr := uint64(lui.Imm) + uint64(addi.Imm)
	if addr != img.Symbols["value"] {
		t.Errorf("hi/lo resolves to %#x, want %#x", addr, img.Symbols["value"])
	}
}

func TestEntryFallbackToMain(t *testing.T) {
	img := assembleOK(t, "main:\n\tecall\n")
	if img.Entry != img.Symbols["main"] {
		t.Error("entry fallback failed")
	}
}

func TestImageValidate(t *testing.T) {
	bad := &Image{Sections: []Section{
		{Name: ".text", VA: 0x10001, Size: 4, Perm: PermRead | PermExec},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("unaligned section accepted")
	}
	bad = &Image{Sections: []Section{
		{Name: ".text", VA: 0x10000, Size: 4, Perm: PermRead | PermWrite | PermExec},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("W+X section accepted")
	}
	bad = &Image{Sections: []Section{
		{Name: ".k", VA: 0x10000, Size: 4, Perm: PermRead | PermWrite, Key: 3},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("writable keyed section accepted")
	}
	bad = &Image{Sections: []Section{
		{Name: "a", VA: 0x10000, Size: 8192, Perm: PermRead},
		{Name: "b", VA: 0x11000, Size: 4, Perm: PermRead},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("overlapping sections accepted")
	}
}

func TestTotalAndCodeSize(t *testing.T) {
	img := assembleOK(t, `
_start:
	ecall
	.data
x: .quad 1
`)
	if img.CodeSize() != 4 {
		t.Errorf("code size = %d", img.CodeSize())
	}
	if img.TotalSize() != 12 {
		t.Errorf("total size = %d", img.TotalSize())
	}
}

// Property: assembling "li a0, v" then decoding computes exactly v for
// any 32-bit value (the materialization correctness property).
func TestQuickLiMaterialization(t *testing.T) {
	f := func(v int32) bool {
		img, err := Assemble("_start:\n\tli a0, "+itoa(int64(v))+"\n\tecall\n", DefaultOptions())
		if err != nil {
			return false
		}
		sec, ok := img.FindSection(".text")
		if !ok {
			return false
		}
		words := make([]uint32, len(sec.Data)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(sec.Data[i*4:])
		}
		var a0 int64
		for _, w := range words {
			in := isa.Decode(w)
			switch in.Op {
			case isa.ADDI:
				a0 += in.Imm
			case isa.LUI:
				a0 = in.Imm
			case isa.ADDIW:
				a0 = int64(int32(a0 + in.Imm))
			case isa.ECALL:
			}
		}
		return a0 == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var b [24]byte
	i := len(b)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestSplitOperands(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a0, a1, a2", []string{"a0", "a1", "a2"}},
		{"a0, 8(sp)", []string{"a0", "8(sp)"}},
		{"a0, (a1), 111", []string{"a0", "(a1)", "111"}},
		{`"a, b"`, []string{`"a, b"`}},
		{"", nil},
	}
	for _, c := range cases {
		got := splitOperands(nil, c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitOperands(%q) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitOperands(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestTrimMatchesTrimSpace(t *testing.T) {
	for _, s := range []string{
		"", " ", "\t\r\n\v\f ", "a0", " a0", "a0 ", "\ta0, a1\t", "\u00a0a0", "a0\u00a0",
		" \u0085x\u2003 ", "\u3000", "é", " é ", "\x00a\x00", "\xffa\xff", "a\x80",
	} {
		if got, want := trim(s), strings.TrimSpace(s); got != want {
			t.Errorf("trim(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestParseIntMatchesStrconv pins the lexer's integer parsing to
// strconv's base-0 syntax, inline fast paths and fallback alike.
func TestParseIntMatchesStrconv(t *testing.T) {
	inputs := []string{
		"", "0", "-0", "+0", "1", "-1", "+3", "7", "42", "-2048", "2047",
		"123456789012345678", "-123456789012345678", "1234567890123456789",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"99999999999999999999", "00", "08", "017", "0o17", "0O17", "0b101",
		"0B2", "0x", "0x0", "0x7ff", "0X7FF", "0xfff", "-0x10", "+0x10",
		"0x123456789abcdef", "0x7fffffffffffffff", "0x8000000000000000",
		"0xffffffffffffffff", "0x1_0", "0x_1", "1_000", "_1", "1_", "1__0",
		"1e3", "12abc", "8(sp)", "1+2", "a0", "x10", "-", "+", "--1", " 1",
		"1 ", "'a'", "0x1g", "１",
	}
	for _, s := range inputs {
		want, err := strconv.ParseInt(s, 0, 64)
		if got, ok := parseInt(s); ok != (err == nil) || ok && got != want {
			t.Errorf("parseInt(%q) = %d,%v; strconv says %d,%v", s, got, ok, want, err)
		}
		wantU, errU := strconv.ParseUint(s, 0, 64)
		if got, ok := parseUint(s); ok != (errU == nil) || ok && got != wantU {
			t.Errorf("parseUint(%q) = %d,%v; strconv says %d,%v", s, got, ok, wantU, errU)
		}
	}
	f := func(v int64) bool {
		for _, s := range []string{strconv.FormatInt(v, 10), "0x" + strconv.FormatUint(uint64(v)>>(v&63), 16)} {
			want, err := strconv.ParseInt(s, 0, 64)
			if got, ok := parseInt(s); ok != (err == nil) || ok && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAssembleSmall(b *testing.B) {
	src := `
_start:
	li a0, 42
	la a1, table
	ld.ro a2, (a1), 7
	ecall
	.section .rodata.key.7
table: .quad _start
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
