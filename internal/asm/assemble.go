package asm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"roload/internal/isa"
)

// Options configures assembly.
type Options struct {
	// TextBase is the virtual address of .text. Remaining sections are
	// laid out after it, each page-aligned ("-z separate-code").
	TextBase uint64
	// Entry is the entry symbol; defaults to "_start", falling back to
	// "main".
	Entry string
	// Compress, when set, rewrites eligible instructions to their
	// compressed forms. Layout becomes a two-step fixpoint; only used
	// by the code-size ablation. Branch targets are re-resolved.
	Compress bool
}

// DefaultOptions returns the standard link layout.
func DefaultOptions() Options {
	return Options{TextBase: 0x10000, Entry: "_start"}
}

// Assemble parses and links one assembly source into an Image.
func Assemble(src string, opts Options) (*Image, error) {
	if opts.TextBase == 0 {
		opts.TextBase = 0x10000
	}
	p := parsers.Get().(*parser)
	defer p.release()
	// The arenas are sized once: a line holds at most one statement, and
	// every operand is a line's first or follows a comma.
	lines := strings.Count(src, "\n") + 1
	p.reset(lines, lines+strings.Count(src, ","), opts.Compress)
	if err := p.parse(src); err != nil {
		return nil, err
	}
	return link(p, opts)
}

// MustAssemble is Assemble panicking on error, for compiler-generated
// sources validated upstream and for tests.
func MustAssemble(src string, opts Options) *Image {
	img, err := Assemble(src, opts)
	if err != nil {
		panic(err)
	}
	return img
}

// class groups mnemonics that take the same operands and encode the
// same way.
type class uint8

const (
	clsUnknown class = iota // not an instruction (reported by the encoder)
	clsNop
	clsRet
	clsSys    // ecall, ebreak, fence: operands ignored
	clsLi     // li rd, value
	clsLa     // la rd, symbol
	clsMv     // mv rd, rs
	clsUnary  // not, neg, negw, seqz, snez, sext.w
	clsJump   // j, call, tail
	clsJal    // jal target | jal rd, target
	clsJr     // jr rs
	clsJalr   // jalr rs | jalr rd, off(rs)
	clsBranch // conditional branches, real and pseudo
	clsROLoad // ld.ro rd, (rs), key
	clsLoad
	clsStore
	clsUpper // lui, auipc
	clsCSR
	clsALU     // R-type and I-type ALU
	clsSection // a section switch (typed programs only)
	clsData    // .quad, .space, .asciz (typed programs only)
)

// mnemonic is one entry of the mnemonic table.
type mnemonic struct {
	name  string
	class class
	op    isa.Op // encoded opcode; the canonical opcode of a branch pseudo
	// rd is the link register of j/call/tail.
	rd isa.Reg
	// A unary pseudo encodes as "op rd, rs, imm", or as
	// "op rd, zero, rs" when rtype is set. An ALU mnemonic takes a
	// register third operand when rtype is set, else an immediate.
	imm   int64
	rtype bool
	// Branches: operand count, and which operand is rs1/rs2 (-1 for
	// zero); the target is the last operand.
	nops     int8
	rs1, rs2 int8
	// compress marks the mnemonics literalInst recognizes.
	compress bool
}

// mnemonicTable lists every mnemonic the assembler accepts, indexed by
// Mnemonic: the ISA's opcodes, the pseudo-instructions, and the
// directives a typed program uses. Entry 0 stands for an unknown
// mnemonic.
var mnemonicTable = func() []mnemonic {
	t := []mnemonic{{class: clsUnknown}}
	for _, op := range isa.Ops() {
		if Mnemonic(len(t)) != Mnemonic(op) {
			panic("asm: isa.Ops is not in opcode order")
		}
		e := mnemonic{name: op.String(), op: op}
		switch {
		case op.IsROLoad():
			e.class = clsROLoad
		case op.IsLoad():
			e.class = clsLoad
		case op.IsStore():
			e.class = clsStore
		case op.IsBranch():
			e.class, e.nops, e.rs1, e.rs2 = clsBranch, 3, 0, 1
		case op == isa.JAL:
			e.class = clsJal
		case op == isa.JALR:
			e.class = clsJalr
		case op == isa.LUI || op == isa.AUIPC:
			e.class = clsUpper
		case op == isa.ECALL || op == isa.EBREAK || op == isa.FENCE:
			e.class = clsSys
		case op == isa.CSRRW || op == isa.CSRRS || op == isa.CSRRC:
			e.class = clsCSR
		default:
			e.class, e.rtype = clsALU, op.IsRType()
		}
		t = append(t, e)
	}
	t = append(t,
		mnemonic{name: "nop", class: clsNop},
		mnemonic{name: "ret", class: clsRet},
		mnemonic{name: "li", class: clsLi},
		mnemonic{name: "la", class: clsLa},
		mnemonic{name: "mv", class: clsMv},
		mnemonic{name: "not", class: clsUnary, op: isa.XORI, imm: -1},
		mnemonic{name: "neg", class: clsUnary, op: isa.SUB, rtype: true},
		mnemonic{name: "negw", class: clsUnary, op: isa.SUBW, rtype: true},
		mnemonic{name: "seqz", class: clsUnary, op: isa.SLTIU, imm: 1},
		mnemonic{name: "snez", class: clsUnary, op: isa.SLTU, rtype: true},
		mnemonic{name: "sext.w", class: clsUnary, op: isa.ADDIW},
		mnemonic{name: "j", class: clsJump, rd: isa.Zero},
		mnemonic{name: "call", class: clsJump, rd: isa.RA},
		mnemonic{name: "tail", class: clsJump, rd: isa.Zero},
		mnemonic{name: "jr", class: clsJr},
		mnemonic{name: "bgt", class: clsBranch, op: isa.BLT, nops: 3, rs1: 1, rs2: 0},
		mnemonic{name: "ble", class: clsBranch, op: isa.BGE, nops: 3, rs1: 1, rs2: 0},
		mnemonic{name: "bgtu", class: clsBranch, op: isa.BLTU, nops: 3, rs1: 1, rs2: 0},
		mnemonic{name: "bleu", class: clsBranch, op: isa.BGEU, nops: 3, rs1: 1, rs2: 0},
		mnemonic{name: "beqz", class: clsBranch, op: isa.BEQ, nops: 2, rs1: 0, rs2: -1},
		mnemonic{name: "bnez", class: clsBranch, op: isa.BNE, nops: 2, rs1: 0, rs2: -1},
		mnemonic{name: "blez", class: clsBranch, op: isa.BGE, nops: 2, rs1: -1, rs2: 0},
		mnemonic{name: "bgez", class: clsBranch, op: isa.BGE, nops: 2, rs1: 0, rs2: -1},
		mnemonic{name: "bltz", class: clsBranch, op: isa.BLT, nops: 2, rs1: 0, rs2: -1},
		mnemonic{name: "bgtz", class: clsBranch, op: isa.BLT, nops: 2, rs1: -1, rs2: 0},
		mnemonic{name: ".section", class: clsSection},
		mnemonic{name: ".quad", class: clsData},
		mnemonic{name: ".space", class: clsData},
		mnemonic{name: ".asciz", class: clsData},
	)
	if len(t) != int(numMnemonics) || t[Nop].name != "nop" || t[Bgtz].name != "bgtz" {
		panic("asm: the Mnemonic constants do not match mnemonicTable")
	}
	for i := range t {
		switch t[i].name {
		case "ld.ro", "ld", "lw", "sd", "sw", "addi", "addiw", "slli", "add", "mv", "li", "ret", "jr":
			t[i].compress = true
		}
	}
	return t
}()

// mnemonicSlots is an open-addressed hash index into mnemonicTable
// (0 = empty slot), sized to keep probe chains short.
var mnemonicSlots = func() (slots [256]uint8) {
	for i := 1; i < len(mnemonicTable); i++ {
		if mnemonicTable[i].class >= clsSection {
			continue // text directives have their own parser
		}
		h := mnemonicHash(mnemonicTable[i].name)
		for slots[h] != 0 {
			h++
		}
		slots[h] = uint8(i)
	}
	return slots
}()

func mnemonicHash(name string) uint8 {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return uint8(h ^ h>>8 ^ h>>16)
}

// lookupMnemonic returns the mnemonicTable index of name, 0 if unknown.
func lookupMnemonic(name string) Mnemonic {
	for h := mnemonicHash(name); ; h++ {
		i := Mnemonic(mnemonicSlots[h])
		if i == 0 || mnemonicTable[i].name == name {
			return i
		}
	}
}

// sectionRank orders sections in the image: text first, then plain
// rodata, then keyed rodata (each on its own pages), then data, bss.
func sectionRank(name string) int {
	switch {
	case name == ".text":
		return 0
	case name == ".rodata":
		return 1
	case strings.HasPrefix(name, ".rodata.key."):
		return 2
	case strings.HasPrefix(name, ".rodata."):
		return 1
	case name == ".data":
		return 3
	case name == ".bss":
		return 4
	}
	return 5
}

func link(p *parser, opts Options) (*Image, error) {
	// Stable insertion sort by rank: there are only a handful of sections.
	secs := make([]*section, len(p.sections))
	copy(secs, p.sections)
	for i := 1; i < len(secs); i++ {
		for j := i; j > 0 && sectionRank(secs[j].name) < sectionRank(secs[j-1].name); j-- {
			secs[j], secs[j-1] = secs[j-1], secs[j]
		}
	}

	// Iterative layout with branch relaxation: compute every statement
	// offset, resolve symbols, widen any conditional branch whose target
	// falls outside the ±4 KiB B-type range to the 8-byte inverted-branch
	// + jal form, and repeat until stable. Widening is monotone, so the
	// loop terminates.
	for iter := 0; ; iter++ {
		if iter > 1+p.defined {
			return nil, fmt.Errorf("asm: branch relaxation did not converge")
		}
		base := opts.TextBase
		for _, s := range secs {
			s.base = base
			off := uint64(0)
			for i := range s.stmts {
				st := &s.stmts[i]
				if st.kind == stAlign {
					align := uint64(1) << st.p2
					st.size = (align - off%align) % align
				}
				st.off = off
				off += st.size
			}
			s.size = off
			base += pageRound(off)
			if off == 0 {
				base += 4096 // keep even empty sections distinct
			}
		}
		for i := range p.syms {
			sym := &p.syms[i]
			if sym.sec == nil {
				continue
			}
			off := sym.sec.size
			if sym.stmt < len(sym.sec.stmts) {
				off = sym.sec.stmts[sym.stmt].off
			}
			sym.addr = sym.sec.base + off
		}
		changed := false
		for _, s := range secs {
			for i := range s.stmts {
				st := &s.stmts[i]
				if st.kind != stBranch || st.long {
					continue
				}
				t := p.ops[st.first].x
				if t.sym == 0 {
					continue
				}
				sym := &p.syms[t.sym-1]
				if sym.sec == nil {
					continue // undefined symbol: reported at encode time
				}
				delta := int64(sym.addr) + t.off - int64(s.base+st.off)
				if delta < -4096 || delta > 4094 {
					st.long = true
					st.size = 8
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	e := &encoder{p: p}
	img := &Image{Sections: make([]Section, 0, len(secs))}
	for _, s := range secs {
		data, err := e.section(s)
		if err != nil {
			return nil, err
		}
		img.Sections = append(img.Sections, Section{
			Name: s.name,
			VA:   s.base,
			Size: s.size,
			Perm: s.perm,
			Key:  s.key,
			Data: data,
		})
	}

	entryName := opts.Entry
	if entryName == "" {
		entryName = "_start"
	}
	entry, ok := p.lookup(entryName)
	if !ok {
		entry, ok = p.lookup("main")
		if !ok {
			return nil, fmt.Errorf("asm: entry symbol %q not defined", entryName)
		}
	}
	img.Entry = entry
	img.Symbols = make(map[string]uint64, p.defined)
	for _, sym := range p.syms {
		if sym.sec != nil {
			img.Symbols[sym.name] = sym.addr
		}
	}

	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// lookup returns the address of a defined symbol.
func (p *parser) lookup(name string) (uint64, bool) {
	id, ok := p.symIndex[name]
	if !ok || p.syms[id].sec == nil {
		return 0, false
	}
	return p.syms[id].addr, true
}

// maxImmInsts bounds the li expansion: a 64-bit constant is a 32-bit
// lui+addiw core and three slli+addi steps.
const maxImmInsts = 8

// encoder is pass 2: it encodes the typed statements of each section,
// in image order, into a buffer of the size layout computed.
type encoder struct {
	p     *parser
	line  int32
	words [maxImmInsts]uint32 // the current statement's encoding
	nw    int
}

func (e *encoder) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: int(e.line), Msg: fmt.Sprintf(format, args...), Stmt: e.p.typed}
}

// name returns a statement's mnemonic as written, lowercased.
func (e *encoder) name(st *stmt) string {
	if st.mn == 0 {
		return e.p.bad[st.first]
	}
	return mnemonicTable[st.mn].name
}

// section encodes one section; .bss keeps no bytes.
func (e *encoder) section(s *section) ([]byte, error) {
	var data []byte
	if s.name != ".bss" || !zeroFill(s.stmts) {
		data = make([]byte, s.size)
	}
	for i := range s.stmts {
		st := &s.stmts[i]
		e.line = st.line
		switch st.kind {
		case stC16:
			binary.LittleEndian.PutUint16(data[st.off:], st.c16)
		case stBranch:
			e.nw = 0
			if err := e.encodeBranch(st, s.base+st.off); err != nil {
				return nil, err
			}
			e.put(data[st.off:])
		case stInst:
			e.nw = 0
			if err := e.encodeInst(st, s.base+st.off); err != nil {
				return nil, err
			}
			if uint64(e.nw*4) != st.size {
				return nil, fmt.Errorf("asm: line %d: internal size mismatch for %s (%d != %d)",
					st.line, e.name(st), e.nw*4, st.size)
			}
			e.put(data[st.off:])
		case stData:
			off := st.off
			for _, item := range e.p.items[st.first : st.first+st.n] {
				if item.width == 0 {
					off += uint64(copy(data[off:], item.str))
					if item.nul {
						off++ // already zero
					}
					continue
				}
				v, err := e.eval(item.val)
				if err != nil {
					return nil, err
				}
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				off += uint64(copy(data[off:], buf[:item.width]))
			}
		}
	}
	if s.name == ".bss" {
		return nil, nil
	}
	return data, nil
}

// zeroFill reports whether a section holds only .space and .align.
func zeroFill(stmts []stmt) bool {
	for i := range stmts {
		if k := stmts[i].kind; k != stSpace && k != stAlign {
			return false
		}
	}
	return true
}

// put writes the encoded words to dst.
func (e *encoder) put(dst []byte) {
	for i, w := range e.words[:e.nw] {
		binary.LittleEndian.PutUint32(dst[4*i:], w)
	}
}

// emit encodes one instruction into the statement's words.
func (e *encoder) emit(in isa.Inst) error {
	w, err := isa.Encode(in)
	if err != nil {
		return e.errf("%v", err)
	}
	e.words[e.nw] = w
	e.nw++
	return nil
}

func (e *encoder) eval(x expr) (int64, error) {
	v := x.off
	if x.sym != 0 {
		sym := &e.p.syms[x.sym-1]
		if sym.sec == nil {
			return 0, e.errf("undefined symbol %q", sym.name)
		}
		v += int64(sym.addr)
	}
	return x.apply(v), nil
}

// apply returns v, the resolved value of x, with x's %hi or %lo
// applied.
func (x expr) apply(v int64) int64 {
	switch upper := (v + 0x800) &^ 0xfff; {
	case x.hi:
		return upper
	case x.lo:
		return v - upper
	}
	return v
}

// check reports an operand's pass-1 lexing error.
func (e *encoder) check(st *stmt, o *operand) error {
	if o.err != opOK {
		return e.errf("%s", o.err.message(e.name(st), e.p.bad[o.bad]))
	}
	return nil
}

// reg returns a register operand.
func (e *encoder) reg(st *stmt, o *operand) (isa.Reg, error) {
	return o.reg, e.check(st, o)
}

// value evaluates a value operand.
func (e *encoder) value(st *stmt, o *operand) (int64, error) {
	if err := e.check(st, o); err != nil {
		return 0, err
	}
	return e.eval(o.x)
}

func (e *encoder) need(st *stmt, n int) error {
	if int(st.n) != n {
		return e.errf("%s needs %d operands, got %d", e.name(st), n, st.n)
	}
	return nil
}

// encodeInst encodes one mnemonic (real or pseudo) into machine words.
// Each class checks its operands in the order the error a source with
// several faults reports depends on.
func (e *encoder) encodeInst(st *stmt, pc uint64) error {
	m := &mnemonicTable[st.mn]
	ops := e.p.ops[st.first : st.first+int32(st.parsed)]
	switch m.class {
	case clsNop:
		return e.emit(isa.Inst{Op: isa.ADDI})
	case clsRet:
		return e.emit(isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA})
	case clsSys:
		return e.emit(isa.Inst{Op: m.op})

	case clsLi, clsLa:
		if err := e.need(st, 2); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		v, err := e.value(st, &ops[1])
		if err != nil {
			return err
		}
		return e.loadImm(rd, v, m.class == clsLa || ops[1].x.sym != 0)

	case clsMv, clsUnary:
		if m.class == clsMv || st.n < 2 {
			if err := e.need(st, 2); err != nil {
				return err
			}
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		rs, err := e.reg(st, &ops[1])
		if err != nil {
			return err
		}
		switch {
		case m.class == clsMv:
			return e.emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs})
		case m.rtype:
			return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: isa.Zero, Rs2: rs})
		default:
			return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: rs, Imm: m.imm})
		}

	case clsJump:
		if err := e.need(st, 1); err != nil {
			return err
		}
		return e.jump(st, m.rd, &ops[0], pc)

	case clsJal:
		if st.n == 1 {
			return e.jump(st, isa.RA, &ops[0], pc)
		}
		if err := e.need(st, 2); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		return e.jump(st, rd, &ops[1], pc)

	case clsJr:
		if err := e.need(st, 1); err != nil {
			return err
		}
		rs, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		return e.emit(isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: rs})

	case clsJalr:
		if st.n == 1 { // jalr rs
			rs, err := e.reg(st, &ops[0])
			if err != nil {
				return err
			}
			return e.emit(isa.Inst{Op: isa.JALR, Rd: isa.RA, Rs1: rs})
		}
		if err := e.need(st, 2); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		off, err := e.value(st, &ops[1])
		if err != nil {
			return err
		}
		return e.emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: ops[1].reg, Imm: off})

	case clsROLoad:
		// ld.ro rd, (rs1), key
		if err := e.need(st, 3); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		rs1, err := e.reg(st, &ops[1])
		if err != nil {
			return err
		}
		if err := e.check(st, &ops[2]); err != nil {
			return err
		}
		return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: rs1, Key: uint16(ops[2].x.off)})

	case clsLoad, clsStore:
		if err := e.need(st, 2); err != nil {
			return err
		}
		r, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		off, err := e.value(st, &ops[1])
		if err != nil {
			return err
		}
		if m.class == clsStore {
			return e.emit(isa.Inst{Op: m.op, Rs1: ops[1].reg, Rs2: r, Imm: off})
		}
		return e.emit(isa.Inst{Op: m.op, Rd: r, Rs1: ops[1].reg, Imm: off})

	case clsUpper:
		if err := e.need(st, 2); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		v, err := e.value(st, &ops[1])
		if err != nil {
			return err
		}
		// Accept both "lui rd, 0x11" (page number) and %hi() results.
		if x := ops[1].x; !x.hi && x.sym == 0 && v >= 0 && v < 1<<20 {
			v <<= 12
		}
		return e.emit(isa.Inst{Op: m.op, Rd: rd, Imm: v})

	case clsCSR:
		if err := e.need(st, 3); err != nil {
			return err
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		if err := e.check(st, &ops[1]); err != nil {
			return err
		}
		rs1, err := e.reg(st, &ops[2])
		if err != nil {
			return err
		}
		return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: rs1, Imm: ops[1].x.off})

	case clsALU:
		if st.n != 3 {
			return e.errf("%s needs 3 operands", e.name(st))
		}
		rd, err := e.reg(st, &ops[0])
		if err != nil {
			return err
		}
		rs1, err := e.reg(st, &ops[1])
		if err != nil {
			return err
		}
		if ops[2].isReg {
			if !m.rtype {
				return e.errf("%s expected immediate as third operand, got register %s", e.name(st), ops[2].reg)
			}
			return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: rs1, Rs2: ops[2].reg})
		}
		v, err := e.value(st, &ops[2])
		if err != nil {
			return err
		}
		if m.rtype {
			return e.errf("%s expected register as third operand, got value %d", e.name(st), v)
		}
		return e.emit(isa.Inst{Op: m.op, Rd: rd, Rs1: rs1, Imm: v})
	}
	return e.errf("unknown instruction %q", e.name(st))
}

// materializeImm appends to seq the instructions loading the 64-bit
// constant v into rd, following the GNU assembler's RV64 expansion: a
// 32-bit lui/addiw core for the top bits, then slli+addi steps for the
// remainder. force2 pins the two-instruction lui+addiw form used for
// (32-bit) symbol addresses so pass-1 sizes stay exact. At most
// maxImmInsts instructions are appended.
func materializeImm(seq []isa.Inst, rd isa.Reg, v int64, force2 bool) []isa.Inst {
	if !force2 && v >= -2048 && v < 2048 {
		return append(seq, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: v})
	}
	if v >= -(1<<31) && v < 1<<31 {
		upper := (v + 0x800) &^ 0xfff
		low := v - upper
		// lui materializes a sign-extended 32-bit value; values near
		// the top of the positive range wrap (lui 0x80000 + addiw -1 =
		// 0x7fffffff).
		upper = int64(int32(upper))
		return append(seq,
			isa.Inst{Op: isa.LUI, Rd: rd, Imm: upper},
			// addiw sign-extends the 32-bit result, matching GNU as.
			isa.Inst{Op: isa.ADDIW, Rd: rd, Rs1: rd, Imm: low})
	}
	// 64-bit case: materialize the high part recursively, then shift
	// in 12-bit chunks.
	lo12 := v << 52 >> 52
	hi := (v - lo12) >> 12
	seq = materializeImm(seq, rd, hi, false)
	seq = append(seq, isa.Inst{Op: isa.SLLI, Rd: rd, Rs1: rd, Imm: 12})
	if lo12 != 0 {
		seq = append(seq, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: lo12})
	}
	return seq
}

// loadImm emits the li/la sequence.
func (e *encoder) loadImm(rd isa.Reg, v int64, force2 bool) error {
	var buf [maxImmInsts]isa.Inst
	for _, in := range materializeImm(buf[:0], rd, v, force2) {
		if err := e.emit(in); err != nil {
			return err
		}
	}
	return nil
}

// invertBranch returns the opposite condition.
func invertBranch(op isa.Op) isa.Op {
	switch op {
	case isa.BEQ:
		return isa.BNE
	case isa.BNE:
		return isa.BEQ
	case isa.BLT:
		return isa.BGE
	case isa.BGE:
		return isa.BLT
	case isa.BLTU:
		return isa.BGEU
	case isa.BGEU:
		return isa.BLTU
	}
	return op
}

// encodeBranch emits a conditional branch, using the relaxed
// inverted-branch + jal form when the linker marked it long.
func (e *encoder) encodeBranch(st *stmt, pc uint64) error {
	target := e.p.ops[st.first].x
	off, err := e.eval(target)
	if err != nil {
		return err
	}
	if target.sym != 0 {
		off -= int64(pc)
	}
	if !st.long {
		w, err := isa.Encode(isa.Inst{Op: st.bop, Rs1: st.rs1, Rs2: st.rs2, Imm: off})
		if err != nil {
			return e.errf("branch target out of range: %v", err)
		}
		e.words[0], e.nw = w, 1
		return nil
	}
	// Relaxed: "bcc rs1, rs2, target" becomes
	//   b!cc rs1, rs2, +8
	//   jal  zero, target
	if err := e.emit(isa.Inst{Op: invertBranch(st.bop), Rs1: st.rs1, Rs2: st.rs2, Imm: 8}); err != nil {
		return err
	}
	w, err := isa.Encode(isa.Inst{Op: isa.JAL, Rd: isa.Zero, Imm: off - 4})
	if err != nil {
		return e.errf("relaxed branch target out of jal range: %v", err)
	}
	e.words[1], e.nw = w, 2
	return nil
}

// jump emits jal rd, target: a symbol is made pc-relative, a number is
// already an offset.
func (e *encoder) jump(st *stmt, rd isa.Reg, target *operand, pc uint64) error {
	off, err := e.value(st, target)
	if err != nil {
		return err
	}
	if target.x.sym != 0 {
		off -= int64(pc)
	}
	w, err := isa.Encode(isa.Inst{Op: isa.JAL, Rd: rd, Imm: off})
	if err != nil {
		return e.errf("jump target out of range: %v", err)
	}
	e.words[e.nw] = w
	e.nw++
	return nil
}
