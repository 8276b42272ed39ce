package asm

import (
	"fmt"
	"strconv"
	"strings"

	"roload/internal/isa"
)

// Mnemonic identifies an instruction, pseudo-instruction or directive
// of a typed program. The mnemonic of an ISA instruction is its opcode:
// Mnemonic(isa.ADDI) is addi.
type Mnemonic uint8

// The pseudo-instructions and directives, numbered after the opcodes.
const (
	Nop Mnemonic = Mnemonic(isa.LDRO) + 1 + iota
	Ret
	Li
	La
	Mv
	Not
	Neg
	Negw
	Seqz
	Snez
	SextW
	J
	Call
	Tail
	Jr
	Bgt
	Ble
	Bgtu
	Bleu
	Beqz
	Bnez
	Blez
	Bgez
	Bltz
	Bgtz
	// Sect switches to the section its one ArgSym operand names.
	Sect
	Quad  // .quad value
	Space // .space size
	Asciz // .asciz string

	numMnemonics
)

// String returns the mnemonic as assembly text spells it.
func (m Mnemonic) String() string {
	if m != 0 && m < numMnemonics {
		return mnemonicTable[m].name
	}
	return fmt.Sprintf("mnemonic(%d)", uint8(m))
}

// ArgKind is the form of a typed operand.
type ArgKind uint8

const (
	ArgReg ArgKind = iota + 1 // a register
	ArgInt                    // an integer
	ArgSym                    // symbol±offset
	ArgHi                     // %hi(symbol±offset), or %hi(integer) with no symbol
	ArgLo                     // %lo(symbol±offset), or %lo(integer) with no symbol
	ArgMem                    // off(reg)
	ArgInd                    // (reg), the address operand of the ld.ro family
	ArgKey                    // a ROLoad page key
	ArgStr                    // the bytes of an .asciz string
)

// Arg is one typed operand. It holds no text to lex: the assembler
// reads its fields, and Append prints it as assembly text.
type Arg struct {
	Sym  string  // the symbol of ArgSym, ArgHi and ArgLo; the bytes of ArgStr
	Val  int64   // the integer; the offset of a symbol or of off(reg); the key
	Kind ArgKind // zero for no operand
	Reg  isa.Reg // the register; the base of off(reg) and (reg)
	Hex  bool    // an ArgInt printed as %#x
}

// R is a register operand.
func R(r isa.Reg) Arg { return Arg{Kind: ArgReg, Reg: r} }

// Imm is an integer operand, printed in decimal.
func Imm(v int64) Arg { return Arg{Kind: ArgInt, Val: v} }

// Hex is an integer operand, printed as %#x.
func Hex(v int64) Arg { return Arg{Kind: ArgInt, Val: v, Hex: true} }

// Sym is a symbol operand.
func Sym(name string) Arg { return Arg{Kind: ArgSym, Sym: name} }

// Mem is an off(base) memory operand; it prints the offset even when
// it is zero.
func Mem(off int64, base isa.Reg) Arg { return Arg{Kind: ArgMem, Val: off, Reg: base} }

// Ind is the (base) address operand of the ld.ro family.
func Ind(base isa.Reg) Arg { return Arg{Kind: ArgInd, Reg: base} }

// Key is a ROLoad page key operand.
func Key(k uint16) Arg { return Arg{Kind: ArgKey, Val: int64(k)} }

// Str is the string operand of .asciz.
func Str(s string) Arg { return Arg{Kind: ArgStr, Sym: s} }

// Append appends the operand as assembly text to dst.
func (a Arg) Append(dst []byte) []byte {
	switch a.Kind {
	case ArgReg:
		return append(dst, a.Reg.String()...)
	case ArgInt, ArgKey:
		if a.Hex {
			u := uint64(a.Val)
			if a.Val < 0 {
				dst, u = append(dst, '-'), -u
			}
			return strconv.AppendUint(append(dst, "0x"...), u, 16)
		}
		return strconv.AppendInt(dst, a.Val, 10)
	case ArgSym:
		return appendSymOff(dst, a.Sym, a.Val)
	case ArgHi, ArgLo:
		if a.Kind == ArgHi {
			dst = append(dst, "%hi("...)
		} else {
			dst = append(dst, "%lo("...)
		}
		if a.Sym == "" {
			dst = strconv.AppendInt(dst, a.Val, 10)
		} else {
			dst = appendSymOff(dst, a.Sym, a.Val)
		}
		return append(dst, ')')
	case ArgMem:
		dst = strconv.AppendInt(dst, a.Val, 10)
		return append(append(append(dst, '('), a.Reg.String()...), ')')
	case ArgInd:
		return append(append(append(dst, '('), a.Reg.String()...), ')')
	case ArgStr:
		return strconv.AppendQuote(dst, a.Sym)
	}
	return dst
}

func appendSymOff(dst []byte, sym string, off int64) []byte {
	dst = append(dst, sym...)
	if off > 0 {
		dst = append(dst, '+')
	}
	if off != 0 {
		dst = strconv.AppendInt(dst, off, 10)
	}
	return dst
}

// Line is one statement of a typed program: a label definition when
// Label is set, else a mnemonic with its first N operands.
type Line struct {
	Label string
	Op    Mnemonic
	N     uint8
	Args  [3]Arg
}

// Append appends the statement as assembly text to dst, with no
// indentation or newline: "name:" for a label, else the mnemonic and
// its comma-separated operands.
func (l *Line) Append(dst []byte) []byte {
	if l.Label != "" {
		return append(append(dst, l.Label...), ':')
	}
	dst = append(dst, l.Op.String()...)
	for i := 0; i < int(l.N) && i < len(l.Args); i++ {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = l.Args[i].Append(dst)
	}
	return dst
}

// AssembleLines links a typed program into an Image. prog hands each
// statement to emit in order; emit does not keep the pointer. The
// statements go into the same pass-1 arrays that Assemble lexes text
// into, and share its layout, encoding and link, so a program and its
// rendering as assembly text link to the same image. An error names the
// statement (1-based, in emit order).
func AssembleLines(prog func(emit func(*Line)), opts Options) (*Image, error) {
	if opts.TextBase == 0 {
		opts.TextBase = 0x10000
	}
	p := parsers.Get().(*parser)
	defer p.release()
	p.reset(0, 0, opts.Compress)
	p.typed = true
	var err error
	prog(func(l *Line) {
		p.line++
		if err == nil {
			err = p.typedLine(l)
		}
	})
	if err != nil {
		return nil, err
	}
	return link(p, opts)
}

// typedLine adds one statement of a typed program.
func (p *parser) typedLine(l *Line) error {
	if l.Label != "" {
		return p.defineLabel(l.Label)
	}
	if l.Op == 0 || l.Op >= numMnemonics || int(l.N) > len(l.Args) {
		return p.errf("malformed statement: %s with %d operands", l.Op, l.N)
	}
	m := &mnemonicTable[l.Op]
	n := int(l.N)
	args := l.Args[:n]
	switch m.class {
	case clsSection:
		if n != 1 || args[0].Kind != ArgSym {
			return p.errf(".section needs a section name")
		}
		return p.enterSection(args[0].Sym)
	case clsData:
		return p.typedData(l.Op, args)
	case clsBranch:
		if n != int(m.nops) {
			return p.errf("%s needs %d operands, got %d", m.name, m.nops, n)
		}
		var regs [2]isa.Reg
		for i, idx := range [2]int8{m.rs1, m.rs2} {
			if idx < 0 {
				continue // the implicit zero of a compare-with-zero pseudo
			}
			if args[idx].Kind != ArgReg {
				return p.errf("bad register %q", args[idx].Append(nil))
			}
			regs[i] = args[idx].Reg
		}
		var target operand
		p.argOperand(&target, fExpr, &args[n-1])
		return p.addBranch(m, regs[0], regs[1], target)
	}
	first := len(p.ops)
	for i, f := range operandForms(m.class, n) {
		p.ops = append(p.ops, operand{})
		p.argOperand(&p.ops[len(p.ops)-1], f, &args[i])
	}
	var roAddr operand
	if p.compress && l.Op == Mnemonic(isa.LDRO) && n == 3 && args[1].Kind == ArgInd {
		roAddr = operand{reg: args[1].Reg, lit: true}
	}
	return p.addInst(l.Op, first, n, roAddr)
}

// argOperand reads a typed operand into form f, filling the zero
// operand o. An operand of the wrong kind gets the error the text of
// it would get in that position.
func (p *parser) argOperand(o *operand, f form, a *Arg) {
	switch f {
	case fReg:
		if a.Kind == ArgReg {
			o.reg, o.isReg = a.Reg, true
			return
		}
		o.err = errReg
	case fRegOrExpr:
		if a.Kind == ArgReg {
			o.reg, o.isReg = a.Reg, true
			return
		}
		if p.argExpr(o, a) {
			return
		}
		o.err = errExpr
	case fExpr:
		if p.argExpr(o, a) {
			return
		}
		o.err = errExpr
	case fMem:
		if a.Kind == ArgMem {
			o.reg, o.x.off, o.lit = a.Reg, a.Val, true
			return
		}
		o.err = errMem
	case fROAddr:
		if a.Kind == ArgInd {
			o.reg = a.Reg
			return
		}
		o.err = errROAddr
	case fKey:
		if a.Kind == ArgKey && a.Val >= 0 && a.Val <= isa.MaxKey {
			o.x.off, o.lit = a.Val, true
			return
		}
		o.err = errKey
	case fCSR:
		if a.Kind == ArgInt && a.Val >= 0 && a.Val < 1<<12 {
			o.x.off, o.lit = a.Val, true
			return
		}
		o.err = errCSR
	}
	o.bad = p.badText(string(a.Append(nil)))
}

// argExpr reads a value operand (an integer, symbol±offset, %hi or
// %lo) into o.x, reporting whether a held one.
func (p *parser) argExpr(o *operand, a *Arg) bool {
	switch a.Kind {
	case ArgInt:
		o.x, o.lit = expr{off: a.Val}, true
	case ArgSym, ArgHi, ArgLo:
		if a.Kind == ArgSym && a.Sym == "" {
			return false
		}
		o.x = expr{off: a.Val, hi: a.Kind == ArgHi, lo: a.Kind == ArgLo}
		if a.Sym != "" {
			o.x.sym = p.intern(a.Sym)
		}
	default:
		return false
	}
	return true
}

// typedData adds a .quad, .space or .asciz statement.
func (p *parser) typedData(op Mnemonic, args []Arg) error {
	if len(args) != 1 {
		return p.errf("%s needs 1 operand, got %d", op, len(args))
	}
	a := &args[0]
	switch op {
	case Quad:
		var o operand
		if !p.argExpr(&o, a) {
			return p.errf("cannot parse expression %q", a.Append(nil))
		}
		p.items = append(p.items, dataItem{width: 8, val: o.x})
		return p.addStmt(stmt{kind: stData, size: 8, first: int32(len(p.items) - 1), n: 1})
	case Space:
		if a.Kind != ArgInt || a.Val < 0 || a.Val >= 1<<32 {
			return p.errf("bad size %q", a.Append(nil))
		}
		return p.addStmt(stmt{kind: stSpace, size: uint64(a.Val)})
	default: // Asciz
		if a.Kind != ArgStr {
			return p.errf("bad string %q", a.Append(nil))
		}
		p.items = append(p.items, dataItem{str: a.Sym, nul: true})
		return p.addStmt(stmt{kind: stData, size: uint64(len(a.Sym)) + 1,
			first: int32(len(p.items) - 1), n: 1})
	}
}

// release returns p to the pool, keeping the .text arena if a typed
// program grew it.
func (p *parser) release() {
	for _, s := range p.sections {
		if s.name == ".text" && cap(s.stmts) > cap(p.text) {
			p.text = s.stmts[:0]
		}
	}
	parsers.Put(p)
}

// ParseLines lexes assembly source into a typed program, for fixed
// text that a typed program embeds, such as a compiler's runtime. It
// lexes operands as Assemble does and keeps integers by value. It
// takes what a Line can hold: labels; instructions whose operands are
// registers, values, integer off(reg), (reg) or keys; sections; and
// .quad, .space and .asciz with one operand. Anything else, and any
// operand Assemble would reject, is an error.
func ParseLines(src string) ([]Line, error) {
	p := new(parser)
	p.reset(0, 0, false)
	var out []Line
	for _, raw := range strings.Split(src, "\n") {
		p.line++
		line := trim(stripComment(raw))
		for line != "" {
			idx := strings.IndexByte(line, ':')
			if idx < 0 || !isIdent(trim(line[:idx])) {
				break
			}
			out = append(out, Line{Label: trim(line[:idx])})
			line = trim(line[idx+1:])
		}
		if line == "" {
			continue
		}
		name, rest := cutWord(line)
		if line[0] == '.' {
			l, err := p.directiveLine(name, rest)
			if err != nil {
				return nil, err
			}
			out = append(out, l)
			continue
		}
		mi := lookupMnemonic(strings.ToLower(name))
		if mi == 0 {
			return nil, p.errf("unknown instruction %q", name)
		}
		m := &mnemonicTable[mi]
		texts := splitOperands(nil, rest)
		forms := operandForms(m.class, len(texts))
		if m.class == clsBranch && len(texts) == int(m.nops) {
			forms = formsBranch[3-m.nops:]
		}
		if len(texts) > len(Line{}.Args) || len(forms) != len(texts) {
			return nil, p.errf("%s with %d operands cannot be typed", m.name, len(texts))
		}
		l := Line{Op: mi, N: uint8(len(texts))}
		for i, f := range forms {
			var o operand
			p.parseOperand(&o, f, texts[i])
			a, ok := p.operandArg(&o, f)
			if !ok {
				return nil, p.errf("operand %q of %s cannot be typed", texts[i], m.name)
			}
			l.Args[i] = a
		}
		out = append(out, l)
	}
	return out, nil
}

// formsBranch are the operand forms of a three-operand branch; a
// compare-with-zero pseudo takes the last two.
var formsBranch = []form{fReg, fReg, fExpr}

// directiveLine types a directive line for ParseLines.
func (p *parser) directiveLine(name, rest string) (Line, error) {
	one := func(op Mnemonic, a Arg) Line { return Line{Op: op, N: 1, Args: [3]Arg{a}} }
	switch name {
	case ".text", ".data", ".bss", ".rodata":
		return one(Sect, Sym(name)), nil
	case ".section":
		return one(Sect, Sym(rest)), nil
	case ".quad":
		var o operand
		p.parseOperand(&o, fExpr, rest)
		if a, ok := p.operandArg(&o, fExpr); ok {
			return one(Quad, a), nil
		}
	case ".space":
		if n, err := strconv.ParseUint(rest, 0, 32); err == nil {
			return one(Space, Imm(int64(n))), nil
		}
	case ".asciz":
		if s, err := strconv.Unquote(rest); err == nil {
			return one(Asciz, Str(s)), nil
		}
	}
	return Line{}, p.errf("directive %s %s cannot be typed", name, rest)
}

// operandArg is the typed form of an operand lexed into form f.
func (p *parser) operandArg(o *operand, f form) (Arg, bool) {
	if o.err != opOK {
		return Arg{}, false
	}
	switch f {
	case fReg:
		return R(o.reg), true
	case fRegOrExpr, fExpr:
		if o.isReg {
			return R(o.reg), true
		}
		a := Imm(o.x.off)
		switch {
		case o.x.hi:
			a.Kind = ArgHi
		case o.x.lo:
			a.Kind = ArgLo
		case o.x.sym != 0:
			a.Kind = ArgSym
		}
		if o.x.sym != 0 {
			a.Sym = p.syms[o.x.sym-1].name
		}
		return a, true
	case fMem:
		if o.x.sym != 0 || o.x.hi || o.x.lo {
			return Arg{}, false
		}
		return Mem(o.x.off, o.reg), true
	case fROAddr:
		return Ind(o.reg), true
	case fKey:
		return Key(uint16(o.x.off)), true
	case fCSR:
		return Imm(o.x.off), true
	}
	return Arg{}, false
}
