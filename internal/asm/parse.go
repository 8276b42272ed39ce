package asm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"roload/internal/isa"
)

// SyntaxError reports a problem in the assembly source, or in a
// statement of a typed program.
type SyntaxError struct {
	Line int // the 1-based text line, or with Stmt the statement number
	Msg  string
	Stmt bool // the error is in a typed program (AssembleLines)
}

func (e *SyntaxError) Error() string {
	if e.Stmt {
		return fmt.Sprintf("asm: statement %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// expr is a symbol-relative constant: sym == 0 means a plain integer.
type expr struct {
	off int64
	sym int32 // 1 + index into parser.syms
	hi  bool  // %hi(...)
	lo  bool  // %lo(...)
}

// opErr says why an operand does not take the form its position needs.
// Pass 1 records it; the message is built only when an error is
// reported, in the order the encoder reaches it.
type opErr uint8

const (
	opOK      opErr = iota
	errReg          // bad register %q
	errMem          // bad memory operand %q
	errEmpty        // empty expression
	errOffset       // bad offset in %q
	errExpr         // cannot parse expression %q
	errROAddr       // <op> address operand must be (reg), got %q
	errKey          // bad key %q
	errCSR          // bad CSR %q
)

// operand is one instruction operand, lexed in pass 1 into the form its
// position takes: a register, a value (integer, sym±off, %hi/%lo), a
// register-or-value, off(reg), (reg), a ROLoad key or a CSR number.
type operand struct {
	x     expr    // the value; the offset of off(reg); the key or CSR number
	bad   int32   // with err: index into parser.bad of the text the message quotes
	err   opErr   // opOK when the operand is well formed
	reg   isa.Reg // the register; the base of off(reg) or (reg)
	isReg bool    // a register-or-value position held a register
	lit   bool    // x is a plain integer literal (strconv.ParseInt syntax)
}

// form is the operand shape a mnemonic expects at a position.
type form uint8

const (
	fReg form = iota
	fExpr
	fRegOrExpr // the third operand of an ALU instruction
	fMem       // off(reg), offset optional and possibly symbolic
	fROAddr    // (reg), the address operand of the ld.ro family
	fKey       // a ROLoad page key
	fCSR       // a CSR number
)

func (e opErr) message(op, bad string) string {
	switch e {
	case errReg:
		return fmt.Sprintf("bad register %q", bad)
	case errMem:
		return fmt.Sprintf("bad memory operand %q", bad)
	case errEmpty:
		return "empty expression"
	case errOffset:
		return fmt.Sprintf("bad offset in %q", bad)
	case errExpr:
		return fmt.Sprintf("cannot parse expression %q", bad)
	case errROAddr:
		return fmt.Sprintf("%s address operand must be (reg), got %q", op, bad)
	case errKey:
		return fmt.Sprintf("bad key %q", bad)
	case errCSR:
		return fmt.Sprintf("bad CSR %q", bad)
	}
	return "malformed operand"
}

// stmtKind tells what a statement emits.
type stmtKind uint8

const (
	stSpace  stmtKind = iota // size zero bytes (.space, .zero, .skip)
	stAlign                  // zero padding up to align
	stInst                   // an instruction or pseudo expansion
	stBranch                 // a conditional branch, relaxable to 8 bytes
	stC16                    // a compressed (RVC) instruction
	stData                   // .byte/.half/.word/.quad values or a string
)

// stmt is one sized unit within a section. It holds no pointers, so a
// section's statements are one flat allocation the GC need not scan.
type stmt struct {
	off  uint64 // byte offset in the section, set by layout
	size uint64
	line int32
	// first indexes parser.ops (instructions, branches) or parser.items
	// (data); for an unknown mnemonic it indexes parser.bad, which holds
	// the name. n is the operand count as written or the item count.
	first int32
	n     int32
	kind  stmtKind
	mn    Mnemonic // 0 for an unknown mnemonic
	// parsed is how many operands pass 1 lexed (0 when the count is one
	// the encoder rejects).
	parsed uint8
	p2     uint8 // stAlign: log2 of the alignment
	// Branches: the canonical opcode and registers (pseudos lowered), and
	// whether layout relaxed the branch to an inverted branch over a jal.
	bop      isa.Op
	rs1, rs2 isa.Reg
	long     bool
	c16      uint16 // the stC16 encoding
}

// dataItem is one value of a data directive, or the bytes of a string.
type dataItem struct {
	val   expr
	str   string
	width uint8 // 1, 2, 4, 8; 0 for a string
	nul   bool  // .asciz: a NUL follows str
}

type section struct {
	name  string
	perm  Perm
	key   uint16
	stmts []stmt
	// layout
	base, size uint64
}

// symbol is a name the source defines or references. A definition
// points at a statement; its address is computed during layout.
type symbol struct {
	name string
	sec  *section // nil while undefined
	stmt int
	addr uint64
}

// parser is pass 1: it lexes each line once into sized statements with
// typed operands, and collects sections and symbols.
type parser struct {
	sections []*section // in order of first appearance
	cur      *section
	syms     []symbol
	symIndex map[string]int32
	defined  int // number of defined symbols
	ops      []operand
	items    []dataItem
	bad      []string // texts error messages quote
	texts    []string // the current line's operand texts (reused)
	text     []stmt   // the .text statements' backing array
	line     int
	compress bool // attempt RVC encodings for literal instructions
	typed    bool // the statements come from AssembleLines
}

// parsers recycles pass-1 state between assemblies: its arenas are the
// assembler's only allocations that grow with the source, and nothing
// in a returned Image or error points into them.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// reset readies p for a program of at most lines statements and nops
// operands, keeping the arenas of an earlier use.
func (p *parser) reset(lines, nops int, compress bool) {
	// Drop the strings into the previous source.
	clear(p.sections)
	clear(p.syms)
	clear(p.items)
	clear(p.bad)
	if p.symIndex == nil {
		p.symIndex = make(map[string]int32, lines/8)
	}
	clear(p.symIndex)
	if cap(p.ops) < nops {
		p.ops = make([]operand, 0, nops)
	}
	if cap(p.text) < lines {
		p.text = make([]stmt, 0, lines)
	}
	*p = parser{
		sections: p.sections[:0],
		syms:     p.syms[:0],
		symIndex: p.symIndex,
		ops:      p.ops[:0],
		items:    p.items[:0],
		bad:      p.bad[:0],
		texts:    p.texts[:0],
		text:     p.text[:0],
		compress: compress,
	}
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: p.line, Msg: fmt.Sprintf(format, args...), Stmt: p.typed}
}

func (p *parser) enterSection(name string) error {
	for _, s := range p.sections {
		if s.name == name {
			p.cur = s
			return nil
		}
	}
	s := &section{name: name}
	switch {
	case name == ".text":
		s.perm = PermRead | PermExec
		// Nearly every line of generated code is a .text statement.
		s.stmts = p.text
	case name == ".data" || name == ".bss":
		s.perm = PermRead | PermWrite
	case name == ".rodata":
		s.perm = PermRead
	case strings.HasPrefix(name, ".rodata.key."):
		s.perm = PermRead
		keyStr := strings.TrimPrefix(name, ".rodata.key.")
		key, err := strconv.ParseUint(keyStr, 10, 16)
		if err != nil || key > isa.MaxKey {
			return p.errf("invalid section key %q", keyStr)
		}
		s.key = uint16(key)
	case strings.HasPrefix(name, ".rodata."):
		s.perm = PermRead
	default:
		return p.errf("unknown section %q", name)
	}
	p.sections = append(p.sections, s)
	p.cur = s
	return nil
}

// intern returns the expr.sym value naming a symbol, creating an
// undefined entry on first mention.
func (p *parser) intern(name string) int32 {
	if id, ok := p.symIndex[name]; ok {
		return id + 1
	}
	id := int32(len(p.syms))
	p.syms = append(p.syms, symbol{name: name})
	p.symIndex[name] = id
	return id + 1
}

// splitOperands appends to dst the trimmed operands of s, split on
// top-level commas (outside parentheses and quoted strings).
func splitOperands(dst []string, s string) []string {
	n0 := len(dst)
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				dst = append(dst, trim(s[start:i]))
				start = i + 1
			}
		}
	}
	last := trim(s[start:])
	if last != "" || len(dst) > n0 {
		dst = append(dst, last)
	}
	return dst
}

// trim is strings.TrimSpace, with ASCII space trimmed inline; text
// that has Unicode at either end after that goes to strings.TrimSpace.
func trim(s string) string {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for j > i && isSpace(s[j-1]) {
		j--
	}
	if i < j && (s[i] >= utf8.RuneSelf || s[j-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s[i:j])
	}
	return s[i:j]
}

// isSpace reports the ASCII space characters strings.TrimSpace trims.
func isSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t'
}

// stripComment cuts a '#' or '//' comment that is not inside a string.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		case '/':
			if !inStr && i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		}
	}
	return line
}

// cutWord splits a statement at its first space into the mnemonic or
// directive name and the trimmed rest.
func cutWord(line string) (name, rest string) {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i], trim(line[i+1:])
	}
	return line, ""
}

func (p *parser) parse(src string) error {
	p.line = 0
	for start := 0; start <= len(src); {
		end := start + strings.IndexByte(src[start:], '\n')
		if end < start {
			end = len(src)
		}
		raw := src[start:end]
		start = end + 1
		p.line++
		line := trim(stripComment(raw))
		// Labels (possibly several on one line).
		for line != "" {
			idx := strings.IndexByte(line, ':')
			if idx < 0 {
				break
			}
			head := trim(line[:idx])
			if !isIdent(head) {
				break
			}
			if err := p.defineLabel(head); err != nil {
				return err
			}
			line = trim(line[idx+1:])
		}
		if line == "" {
			continue
		}
		var err error
		if line[0] == '.' {
			err = p.directive(line)
		} else {
			err = p.instruction(line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (p *parser) defineLabel(name string) error {
	if p.cur == nil {
		if err := p.enterSection(".text"); err != nil {
			return err
		}
	}
	sym := &p.syms[p.intern(name)-1]
	if sym.sec != nil {
		return p.errf("symbol %q redefined", name)
	}
	sym.sec = p.cur
	sym.stmt = len(p.cur.stmts)
	p.defined++
	return nil
}

func (p *parser) directive(line string) error {
	name, rest := cutWord(line)
	switch name {
	case ".text", ".data", ".bss", ".rodata":
		return p.enterSection(name)
	case ".section":
		return p.enterSection(rest)
	case ".globl", ".global":
		return nil // every symbol is visible to the one-unit link
	case ".align", ".p2align":
		n, err := strconv.ParseUint(rest, 0, 8)
		if err != nil || n > 12 {
			return p.errf("bad alignment %q", rest)
		}
		return p.addStmt(stmt{kind: stAlign, p2: uint8(n)})
	case ".space", ".zero", ".skip":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil {
			return p.errf("bad size %q", rest)
		}
		return p.addStmt(stmt{kind: stSpace, size: n})
	case ".byte", ".half", ".word", ".quad", ".dword":
		width := dataWidth(name)
		first := len(p.items)
		p.texts = splitOperands(p.texts[:0], rest)
		for _, op := range p.texts {
			x, _, e, bad := p.parseExpr(op)
			if e != opOK {
				return p.errf("%s", e.message("", p.bad[bad]))
			}
			p.items = append(p.items, dataItem{width: width, val: x})
		}
		n := len(p.items) - first
		if n == 0 {
			return p.errf("%s needs at least one value", name)
		}
		return p.addStmt(stmt{kind: stData, size: uint64(int(width) * n),
			first: int32(first), n: int32(n)})
	case ".asciz", ".string", ".ascii":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return p.errf("bad string %q", rest)
		}
		item := dataItem{str: s, nul: name != ".ascii"}
		size := uint64(len(s))
		if item.nul {
			size++
		}
		p.items = append(p.items, item)
		return p.addStmt(stmt{kind: stData, size: size,
			first: int32(len(p.items) - 1), n: 1})
	default:
		return p.errf("unknown directive %q", name)
	}
}

func dataWidth(directive string) uint8 {
	switch directive {
	case ".byte":
		return 1
	case ".half":
		return 2
	case ".word":
		return 4
	}
	return 8
}

// addStmt appends s, stamped with the current line, to the current
// section.
func (p *parser) addStmt(s stmt) error {
	if p.cur == nil {
		if err := p.enterSection(".text"); err != nil {
			return err
		}
	}
	s.line = int32(p.line)
	p.cur.stmts = append(p.cur.stmts, s)
	return nil
}

// badText records a text an error message may quote.
func (p *parser) badText(s string) int32 {
	p.bad = append(p.bad, s)
	return int32(len(p.bad) - 1)
}

// instruction lexes one instruction line into a statement. Errors the
// encoder would report are recorded in the operands, not returned here,
// so that pass 1 reports only its own errors (branch operands, li, and
// directives) and pass 2 reports the rest in image order.
func (p *parser) instruction(line string) error {
	name, rest := cutWord(line)
	name = strings.ToLower(name)
	p.texts = splitOperands(p.texts[:0], rest)
	texts := p.texts
	mi := lookupMnemonic(name)
	m := &mnemonicTable[mi]
	if m.class == clsBranch {
		if len(texts) != int(m.nops) {
			return p.errf("%s needs %d operands, got %d", m.name, m.nops, len(texts))
		}
		var regs [2]isa.Reg
		for i, idx := range [2]int8{m.rs1, m.rs2} {
			if idx < 0 {
				continue // the implicit zero of a compare-with-zero pseudo
			}
			r, ok := isa.RegByName(texts[idx])
			if !ok {
				return p.errf("bad register %q", texts[idx])
			}
			regs[i] = r
		}
		var target operand
		p.parseOperand(&target, fExpr, texts[m.nops-1])
		return p.addBranch(m, regs[0], regs[1], target)
	}

	if mi == 0 {
		return p.addStmt(stmt{kind: stInst, size: 4, first: p.badText(name), n: int32(len(texts))})
	}

	first := len(p.ops)
	for i, f := range operandForms(m.class, len(texts)) {
		p.ops = append(p.ops, operand{})
		p.parseOperand(&p.ops[len(p.ops)-1], f, texts[i])
	}
	var roAddr operand
	if p.compress && mi == Mnemonic(isa.LDRO) && len(texts) == 3 && p.ops[first].err == opOK {
		// The RVC form takes the address as an off(reg) literal with a
		// zero offset, which (reg) alone does not cover.
		p.parseOperand(&roAddr, fMem, texts[1])
	}
	return p.addInst(mi, first, len(texts), roAddr)
}

// addInst adds the instruction statement of mnemonic mi, written with n
// operands, whose operands pass 1 lexed into p.ops[first:]. roAddr is
// the address operand of ld.ro lexed as off(reg), for the RVC attempt.
// It reports the errors of li operands, which sizing needs.
func (p *parser) addInst(mi Mnemonic, first, n int, roAddr operand) error {
	m := &mnemonicTable[mi]
	ops := p.ops[first:]
	if p.compress && m.compress {
		if in, ok := literalInst(m, n, ops, &roAddr); ok {
			if raw, ok := isa.TryCompress(in); ok {
				p.ops = p.ops[:first]
				return p.addStmt(stmt{kind: stC16, size: 2, c16: raw})
			}
		}
	}

	size := uint64(4)
	switch m.class {
	case clsLi:
		if n != 2 {
			return p.errf("li needs 2 operands")
		}
		if x := &ops[1]; x.err != opOK {
			return p.errf("%s", x.err.message(m.name, p.bad[x.bad]))
		} else if x.x.sym != 0 {
			size = 8 // lui+addiw
		} else {
			var buf [maxImmInsts]isa.Inst
			size = uint64(4 * len(materializeImm(buf[:0], 0, x.x.apply(x.x.off), false)))
		}
	case clsLa:
		size = 8 // lui+addiw
	}
	return p.addStmt(stmt{kind: stInst, size: size, mn: mi,
		first: int32(first), n: int32(n), parsed: uint8(len(ops))})
}

// addBranch adds a conditional branch (real or pseudo) in its canonical
// form, which layout may relax. A bad target is a pass-1 error.
func (p *parser) addBranch(m *mnemonic, rs1, rs2 isa.Reg, target operand) error {
	if target.err != opOK {
		return p.errf("%s", target.err.message(m.name, p.bad[target.bad]))
	}
	p.ops = append(p.ops, target)
	return p.addStmt(stmt{kind: stBranch, size: 4,
		bop: m.op, rs1: rs1, rs2: rs2, first: int32(len(p.ops) - 1)})
}

// operandForms returns the forms pass 1 lexes the operands of a
// mnemonic class into, given how many operands were written; none when
// the count is one the encoder rejects.
func operandForms(c class, n int) []form {
	var forms []form
	switch c {
	case clsLi, clsLa, clsUpper:
		forms = formsRegExpr
	case clsMv:
		forms = formsRegReg
	case clsUnary:
		if n >= 2 {
			return formsRegReg // extra operands are ignored
		}
	case clsJump:
		forms = formsExpr
	case clsJal:
		if n == 1 {
			return formsExpr
		}
		forms = formsRegExpr
	case clsJr:
		forms = formsReg
	case clsJalr:
		if n == 1 {
			return formsReg
		}
		forms = formsRegMem
	case clsROLoad:
		forms = formsROLoad
	case clsLoad, clsStore:
		forms = formsRegMem
	case clsCSR:
		forms = formsCSR
	case clsALU:
		forms = formsALU
	}
	if len(forms) != n {
		return nil
	}
	return forms
}

var (
	formsReg     = []form{fReg}
	formsExpr    = []form{fExpr}
	formsRegReg  = []form{fReg, fReg}
	formsRegExpr = []form{fReg, fExpr}
	formsRegMem  = []form{fReg, fMem}
	formsROLoad  = []form{fReg, fROAddr, fKey}
	formsCSR     = []form{fReg, fCSR, fReg}
	formsALU     = []form{fReg, fReg, fRegOrExpr}
)

// parseOperand lexes one trimmed operand text into form f, filling the
// zero operand o.
func (p *parser) parseOperand(o *operand, f form, s string) {
	switch f {
	case fReg:
		o.reg, o.isReg = isa.RegByName(s)
		if !o.isReg {
			o.err, o.bad = errReg, p.badText(s)
		}
	case fRegOrExpr:
		if o.reg, o.isReg = isa.RegByName(s); !o.isReg {
			o.x, o.lit, o.err, o.bad = p.parseExpr(s)
		}
	case fExpr:
		o.x, o.lit, o.err, o.bad = p.parseExpr(s)
	case fMem:
		open := strings.LastIndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			o.err, o.bad = errMem, p.badText(s)
			break
		}
		inner := s[open+1 : len(s)-1]
		r, ok := isa.RegByName(trim(inner))
		if !ok {
			o.err, o.bad = errReg, p.badText(inner)
			break
		}
		o.reg = r
		if off := trim(s[:open]); off != "" {
			o.x, o.lit, o.err, o.bad = p.parseExpr(off)
		} else {
			o.lit = true
		}
	case fROAddr:
		if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
			o.err, o.bad = errROAddr, p.badText(s)
			break
		}
		inner := s[1 : len(s)-1]
		r, ok := isa.RegByName(trim(inner))
		if !ok {
			o.err, o.bad = errReg, p.badText(inner)
		}
		o.reg = r
	case fKey, fCSR:
		// Keys and CSR numbers are strconv.ParseUint(s, 0, 16 or 12)
		// values; lit keeps the signed parse the RVC path accepts.
		v, ok := parseInt(s)
		o.x.off, o.lit = v, ok
		limit, e := int64(isa.MaxKey), errKey
		if f == fCSR {
			limit, e = 1<<12-1, errCSR
		}
		if !ok || s[0] < '0' || s[0] > '9' || v > limit {
			o.err, o.bad = e, p.badText(s)
		}
	}
}

// literalInst builds an isa.Inst for a mnemonic written with n operands
// that are all registers or integer literals (no symbols), the
// precondition for attempting an RVC encoding at parse time. Only the
// forms the code generator emits frequently are recognized. roAddr is
// the address operand of ld.ro read as off(reg).
func literalInst(m *mnemonic, n int, ops []operand, roAddr *operand) (isa.Inst, bool) {
	regs := func(k int) bool {
		for i := 0; i < k; i++ {
			if ops[i].err != opOK || !ops[i].isReg {
				return false
			}
		}
		return true
	}
	intLit := func(o *operand) bool { return o.err == opOK && !o.isReg && o.lit }
	switch m.name {
	case "ld.ro":
		if n != 3 || !regs(1) {
			return isa.Inst{}, false
		}
		key := ops[2].x.off
		if !intLit(roAddr) || roAddr.x.off != 0 || !ops[2].lit || key < 0 || key > isa.MaxKey {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: isa.LDRO, Rd: ops[0].reg, Rs1: roAddr.reg, Key: uint16(key)}, true
	case "ld", "lw", "sd", "sw":
		if n != 2 || !regs(1) || !intLit(&ops[1]) {
			return isa.Inst{}, false
		}
		if m.op.IsStore() {
			return isa.Inst{Op: m.op, Rs1: ops[1].reg, Rs2: ops[0].reg, Imm: ops[1].x.off}, true
		}
		return isa.Inst{Op: m.op, Rd: ops[0].reg, Rs1: ops[1].reg, Imm: ops[1].x.off}, true
	case "addi", "addiw", "slli":
		if n != 3 || !regs(2) || !intLit(&ops[2]) {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: m.op, Rd: ops[0].reg, Rs1: ops[1].reg, Imm: ops[2].x.off}, true
	case "add":
		if n != 3 || !regs(3) {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: isa.ADD, Rd: ops[0].reg, Rs1: ops[1].reg, Rs2: ops[2].reg}, true
	case "mv":
		if n != 2 || !regs(2) {
			return isa.Inst{}, false
		}
		// c.mv encodes as add rd, x0, rs2.
		return isa.Inst{Op: isa.ADD, Rd: ops[0].reg, Rs1: isa.Zero, Rs2: ops[1].reg}, true
	case "li":
		if n != 2 || !regs(1) || !intLit(&ops[1]) {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: isa.ADDI, Rd: ops[0].reg, Rs1: isa.Zero, Imm: ops[1].x.off}, true
	case "ret":
		if n != 0 {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA}, true
	case "jr":
		if n != 1 || !regs(1) {
			return isa.Inst{}, false
		}
		return isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: ops[0].reg}, true
	}
	return isa.Inst{}, false
}

// parseExpr parses a trimmed integer, symbol, symbol+int, symbol-int,
// %hi(expr) or %lo(expr). lit reports a plain integer in
// strconv.ParseInt syntax; on failure e and bad (an index into
// parser.bad) describe the error.
func (p *parser) parseExpr(s string) (x expr, lit bool, e opErr, bad int32) {
	if s == "" {
		return expr{}, false, errEmpty, p.badText("")
	}
	if s[len(s)-1] == ')' {
		if strings.HasPrefix(s, "%hi(") {
			x, _, e, bad = p.parseExpr(trim(s[4 : len(s)-1]))
			x.hi = true
			return x, false, e, bad
		}
		if strings.HasPrefix(s, "%lo(") {
			x, _, e, bad = p.parseExpr(trim(s[4 : len(s)-1]))
			x.lo = true
			return x, false, e, bad
		}
	}
	if v, ok := parseInt(s); ok {
		return expr{off: v}, true, opOK, 0
	}
	// Unsigned hex like 0xffffffffffffffff.
	if v, ok := parseUint(s); ok {
		return expr{off: int64(v)}, false, opOK, 0
	}
	if s[0] == '\'' { // character literal
		if uq, err := strconv.Unquote(s); err == nil && len(uq) == 1 {
			return expr{off: int64(uq[0])}, false, opOK, 0
		}
	}
	// symbol [+|- offset]
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			sym := trim(s[:i])
			if !isIdent(sym) {
				break
			}
			off, ok := parseInt(trim(s[i+1:]))
			if !ok {
				return expr{}, false, errOffset, p.badText(s)
			}
			if s[i] == '-' {
				off = -off
			}
			return expr{sym: p.intern(sym), off: off}, false, opOK, 0
		}
	}
	if isIdent(s) {
		return expr{sym: p.intern(s)}, false, opOK, 0
	}
	return expr{}, false, errExpr, p.badText(s)
}

// parseInt is strconv.ParseInt(s, 0, 64) reporting only success. Plain
// decimal, all the code generator emits, is converted inline; text that
// cannot be a number is refused without building strconv's error.
func parseInt(s string) (int64, bool) {
	d := s
	if d != "" && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	if d == "" || d[0] < '0' || d[0] > '9' {
		return 0, false
	}
	// Plain decimal of up to 18 digits cannot overflow.
	if len(d) <= 18 && (d[0] != '0' || len(d) == 1) {
		var v int64
		i := 0
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			v = v*10 + int64(d[i]-'0')
		}
		if i == len(d) {
			if s[0] == '-' {
				v = -v
			}
			return v, true
		}
	}
	if !numberLike(d) {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 0, 64)
	return v, err == nil
}

// parseUint is strconv.ParseUint(s, 0, 64) reporting only success.
func parseUint(s string) (uint64, bool) {
	if s == "" || s[0] < '0' || s[0] > '9' || !numberLike(s) {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 0, 64)
	return v, err == nil
}

// numberLike reports whether s holds only bytes an integer literal can
// contain (digits, letters for base prefixes and hex, underscores).
func numberLike(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c|0x20 >= 'a' && c|0x20 <= 'z' || c == '_') {
			return false
		}
	}
	return true
}
