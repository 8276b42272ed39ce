package asm

import (
	"encoding/binary"
	"strings"
	"testing"

	"roload/internal/isa"
)

// FuzzAssembleRoundTrip feeds arbitrary source text to the assembler.
// The property under test: Assemble never panics, and every program it
// accepts yields a structurally valid image whose executable sections
// disassemble cleanly — the same round-trip the deterministic
// TestAssembleDisassembleRoundTrip pins for known-good programs,
// extended to the hostile input space. It also checks what accepted
// instructions mean (checkMeaning).
func FuzzAssembleRoundTrip(f *testing.F) {
	seeds := []string{
		"_start:\n\tli a0, 42\n\tecall\n",
		"_start:\n\tla a1, table\n\tld.ro a2, (a1), 77\n\tjalr ra, a2, 0\n\t.section .rodata.key.77\ntable: .quad _start\n",
		"_start:\n\tj _start\n",
		"_start:\n\taddi sp, sp, -16\n\tsd ra, 8(sp)\n\tld ra, 8(sp)\n\tret\n",
		".section .data\nval: .quad 7\n.section .text\n_start:\n\tla a0, val\n\tld a1, 0(a0)\n\tecall\n",
		"_start:\n\tbeq a0, a1, _start\n\tmul a2, a3, a4\n",
		"; comment only\n",
		".section .rodata.key.1023\nk: .quad 0\n",
		"_start: .quad _missing\n",
		"\x00\xff garbage",
		// Operand forms an encoder once dropped or defaulted.
		"_start:\n\tadd a0, a1, 5\n",
		"_start:\n\tsub a0, a1, sym\nsym:\n",
		"_start:\n\taddi a0, a1, a2\n",
		"_start:\n\tli a0, %lo(0x7ff800)\n",
		"_start:\n\tsd.at a0, 0(a1)\n",
		"_start:\n\tlui a0, 0x11\n\tauipc a1, %hi(_start)\n\tcsrrw a0, 0x300, a1\n",
		"_start:\n\tjal x0, 8\n\tjalr t0, 4(a1)\n\tjalr a2\n\tslli a0, a0, 63\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble(src, DefaultOptions())
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		if err := img.Validate(); err != nil {
			t.Fatalf("accepted program produced invalid image: %v\nsource:\n%s", err, src)
		}
		for _, sec := range img.Sections {
			if sec.Perm&PermExec == 0 {
				continue
			}
			lines := isa.Disassemble(sec.Data, sec.VA)
			for _, l := range lines {
				_ = l.Inst.Op.String()
			}
		}
		var sum uint64
		for _, sec := range img.Sections {
			sum += sec.Size
		}
		if got := img.TotalSize(); got != sum {
			t.Fatalf("TotalSize() = %d, sections sum to %d", got, sum)
		}
		checkMeaning(t, src)
	})
}

// checkMeaning assembles an accepted src again, keeping pass 1's
// statements, and checks that every real (non-pseudo) instruction and
// branch encodes the operands its source wrote, after resolution:
// registers by number, values by what they evaluate to. The encoding
// it expects is built from the operands alone, so an operand the
// encoder dropped or defaulted shows as a different word.
func checkMeaning(t *testing.T, src string) {
	t.Helper()
	p := new(parser)
	lines := strings.Count(src, "\n") + 1
	p.reset(lines, lines+strings.Count(src, ","), false)
	if err := p.parse(src); err != nil {
		t.Fatalf("pass 1 rejects a program Assemble accepted: %v", err)
	}
	img, err := link(p, DefaultOptions())
	if err != nil {
		t.Fatalf("link rejects a program Assemble accepted: %v", err)
	}
	e := &encoder{p: p}
	for _, s := range p.sections {
		sec, _ := img.FindSection(s.name)
		for i := range s.stmts {
			st := &s.stmts[i]
			pc := s.base + st.off
			var want isa.Inst
			switch {
			case st.kind == stBranch && !st.long:
				off, err := e.eval(p.ops[st.first].x)
				if err != nil {
					t.Fatalf("line %d: accepted branch target does not resolve: %v", st.line, err)
				}
				if p.ops[st.first].x.sym != 0 {
					off -= int64(pc)
				}
				want = isa.Inst{Op: st.bop, Rs1: st.rs1, Rs2: st.rs2, Imm: off}
			case st.kind == stInst && st.mn != 0 && st.mn < Nop:
				want = meaningOf(t, e, st, pc)
			default:
				continue
			}
			w, err := isa.Encode(want)
			if err != nil {
				t.Fatalf("line %d: source operands %+v do not encode: %v", st.line, want, err)
			}
			if got := binary.LittleEndian.Uint32(sec.Data[st.off:]); got != w {
				t.Fatalf("line %d: encoded %v, source says %v", st.line, isa.Decode(got), want)
			}
		}
	}
}

// meaningOf builds the instruction an ISA mnemonic's source operands
// describe.
func meaningOf(t *testing.T, e *encoder, st *stmt, pc uint64) isa.Inst {
	t.Helper()
	m := &mnemonicTable[st.mn]
	ops := e.p.ops[st.first : st.first+int32(st.parsed)]
	if len(ops) != int(st.n) && m.class != clsSys {
		t.Fatalf("line %d: %s accepted with %d operands, %d of them lexed", st.line, m.name, st.n, len(ops))
	}
	reg := func(i int) isa.Reg {
		if !ops[i].isReg && m.class == clsALU {
			t.Fatalf("line %d: %s accepted a value where a register goes", st.line, m.name)
		}
		return ops[i].reg
	}
	val := func(i int) int64 {
		if ops[i].isReg {
			t.Fatalf("line %d: %s accepted a register where a value goes", st.line, m.name)
		}
		v, err := e.eval(ops[i].x)
		if err != nil {
			t.Fatalf("line %d: accepted operand does not resolve: %v", st.line, err)
		}
		return v
	}
	in := isa.Inst{Op: m.op}
	switch m.class {
	case clsALU:
		in.Rd, in.Rs1 = reg(0), reg(1)
		if m.rtype {
			in.Rs2 = reg(2)
		} else {
			in.Imm = val(2)
		}
	case clsLoad:
		in.Rd, in.Rs1, in.Imm = reg(0), ops[1].reg, val(1)
	case clsStore:
		in.Rs2, in.Rs1, in.Imm = reg(0), ops[1].reg, val(1)
	case clsROLoad:
		in.Rd, in.Rs1, in.Key = reg(0), reg(1), uint16(ops[2].x.off)
	case clsUpper:
		in.Rd, in.Imm = reg(0), val(1)
		if x := ops[1].x; !x.hi && x.sym == 0 && in.Imm >= 0 && in.Imm < 1<<20 {
			in.Imm <<= 12 // a page number
		}
	case clsJal:
		in.Rd = isa.RA
		if st.n == 2 {
			in.Rd = reg(0)
		}
		target := int(st.n) - 1
		in.Imm = val(target)
		if ops[target].x.sym != 0 {
			in.Imm -= int64(pc)
		}
	case clsJalr:
		if st.n == 1 {
			in.Rd, in.Rs1 = isa.RA, reg(0)
		} else {
			in.Rd, in.Rs1, in.Imm = reg(0), ops[1].reg, val(1)
		}
	case clsCSR:
		in.Rd, in.Imm, in.Rs1 = reg(0), ops[1].x.off, reg(2)
	}
	return in
}
