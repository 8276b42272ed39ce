package asm

import (
	"reflect"
	"testing"

	"roload/internal/isa"
)

// linesOf wraps a typed program as AssembleLines takes it.
func linesOf(lines []Line) func(emit func(*Line)) {
	return func(emit func(*Line)) {
		for i := range lines {
			emit(&lines[i])
		}
	}
}

// A program lexed by ParseLines links to the image Assemble makes of
// its text, and each line prints as equivalent text (integers in
// decimal).
func TestParseLinesMatchesText(t *testing.T) {
	src := `_start:
	li a0, 42
	la a1, table
	ld.ro a2, (a1), 77
	mul a3, a2, a0
	beq a3, zero, done
	bnez a3, done
	addi a3, a3, -1
	lui zero, 0x7c0de
	j _start
done:
	sd a3, 0(sp)
	call _start
	ecall
	.section .rodata.key.77
table: .quad _start
msg: .asciz "hi\n"
	.bss
buf: .space 24
`
	lines, err := ParseLines(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Compress = compress
		want, err := Assemble(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AssembleLines(linesOf(lines), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("compress=%v: typed and text images differ", compress)
		}
	}
	for i, want := range map[int]string{1: "li a0, 42", 3: "ld.ro a2, (a1), 77", 5: "beq a3, zero, done",
		8: "lui zero, 508126", 11: "sd a3, 0(sp)", 17: "msg:", 18: `.asciz "hi\n"`, 21: ".space 24"} {
		if got := string(lines[i].Append(nil)); got != want {
			t.Errorf("line %d prints %q, want %q", i, got, want)
		}
	}
}

// Errors in a typed program name the statement, and an operand of the
// wrong kind reads as its text would in that position.
func TestAssembleLinesErrors(t *testing.T) {
	start := Line{Label: "_start"}
	for _, c := range []struct {
		line Line
		want string
	}{
		{Line{Op: Mnemonic(isa.LD), N: 2, Args: [3]Arg{R(isa.A0), R(isa.A1)}}, `asm: statement 2: bad memory operand "a1"`},
		{Line{Op: Mnemonic(isa.LDRO), N: 3, Args: [3]Arg{R(isa.A0), Mem(0, isa.A1), Key(5)}}, `asm: statement 2: ld.ro address operand must be (reg), got "0(a1)"`},
		{Line{Op: Mnemonic(isa.LDRO), N: 3, Args: [3]Arg{R(isa.A0), Ind(isa.A1), Imm(5)}}, `asm: statement 2: bad key "5"`},
		{Line{Op: Mnemonic(isa.ADD), N: 3, Args: [3]Arg{R(isa.A0), R(isa.A1), Imm(5)}}, `asm: statement 2: add expected register as third operand, got value 5`},
		{Line{Op: J, N: 1, Args: [3]Arg{Sym("nowhere")}}, `asm: statement 2: undefined symbol "nowhere"`},
		{Line{Op: Beqz, N: 2, Args: [3]Arg{Imm(1), Sym("_start")}}, `asm: statement 2: bad register "1"`},
		{Line{Op: Space, N: 1, Args: [3]Arg{Imm(-1)}}, `asm: statement 2: bad size "-1"`},
		{Line{Op: Sect, N: 1, Args: [3]Arg{Sym(".nope")}}, `asm: statement 2: unknown section ".nope"`},
		{Line{N: 1}, `asm: statement 2: malformed statement: mnemonic(0) with 1 operands`},
	} {
		_, err := AssembleLines(linesOf([]Line{start, c.line}), DefaultOptions())
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %s", c.line.Append(nil), err, c.want)
		}
	}
}
