package cc

import (
	"fmt"
	"strconv"

	"roload/internal/asm"
	"roload/internal/isa"
)

// The mnemonics of the ISA instructions the compiler emits.
const (
	opAdd  = asm.Mnemonic(isa.ADD)
	opAddi = asm.Mnemonic(isa.ADDI)
	opAnd  = asm.Mnemonic(isa.AND)
	opDiv  = asm.Mnemonic(isa.DIV)
	opJalr = asm.Mnemonic(isa.JALR)
	opLd   = asm.Mnemonic(isa.LD)
	opMul  = asm.Mnemonic(isa.MUL)
	opOr   = asm.Mnemonic(isa.OR)
	opRem  = asm.Mnemonic(isa.REM)
	opSd   = asm.Mnemonic(isa.SD)
	opSll  = asm.Mnemonic(isa.SLL)
	opSlli = asm.Mnemonic(isa.SLLI)
	opSlt  = asm.Mnemonic(isa.SLT)
	opSra  = asm.Mnemonic(isa.SRA)
	opSub  = asm.Mnemonic(isa.SUB)
	opXor  = asm.Mnemonic(isa.XOR)
	opXori = asm.Mnemonic(isa.XORI)
)

// The register operands the stack machine uses, and its stack slot.
var (
	rZero  = asm.R(isa.Zero)
	rRA    = asm.R(isa.RA)
	rSP    = asm.R(isa.SP)
	rS0    = asm.R(isa.S0)
	rT0    = asm.R(isa.T0)
	rT1    = asm.R(isa.T1)
	rA0    = asm.R(isa.A0)
	mem0SP = asm.Mem(0, isa.SP)
)

// codegen translates a checked program into a Unit. The generator is a
// simple stack machine: every expression leaves its value in t0, with
// intermediate values spilled to the hardware stack. This keeps the
// baseline, VCall, ICall, VTint and CFI variants structurally
// identical except for the instrumentation under study, which is what
// the paper's relative-overhead measurements require.
type codegen struct {
	chk  *Checked
	unit *Unit
	fn   *MFunc
	// lines holds the current function's lines at the start of an
	// arena the unit's functions share, so that a function costs no
	// allocation of its own while the arena lasts.
	lines  []Line
	decl   *FuncDecl
	labelN int
	brk    []asm.Arg // break label stack
	cont   []asm.Arg // continue label stack
	strs   map[string]asm.Arg
}

// Compile parses, checks, and compiles MiniC source into a Unit.
func Compile(src string) (*Unit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	chk, err := Check(prog)
	if err != nil {
		return nil, err
	}
	// Code runs to about one machine line per 1.5 bytes of source.
	return generate(chk, len(src)*3/4)
}

// Generate lowers a checked program.
func Generate(chk *Checked) (*Unit, error) { return generate(chk, 256) }

// generate lowers a checked program into an arena of about lines lines.
func generate(chk *Checked, lines int) (*Unit, error) {
	g := &codegen{
		chk:   chk,
		unit:  &Unit{Checked: chk},
		strs:  make(map[string]asm.Arg),
		lines: make([]Line, 0, lines),
	}
	// vtables (deterministic class order; root computed for keying).
	for _, name := range chk.ClassOrder {
		info := chk.Classes[name]
		root := info
		for root.Base != nil {
			root = root.Base
		}
		def := VTableDef{
			Class:   name,
			Symbol:  "__vt_" + name,
			ClassID: info.ID,
			Root:    root.Decl.Name,
		}
		for _, m := range info.VTable {
			def.Slots = append(def.Slots, m.Mangled)
		}
		g.unit.VTables = append(g.unit.VTables, def)
	}
	// globals
	for _, gv := range chk.Prog.Globals {
		size := g.sizeOf(gv.Type)
		if gv.Init != nil {
			v, _ := constInt(gv.Init) // null initializer folds to 0
			g.unit.Data = append(g.unit.Data, L("g_"+gv.Name), I(asm.Quad, asm.Imm(v)))
		} else {
			g.unit.Bss = append(g.unit.Bss,
				L("g_"+gv.Name), I(asm.Space, asm.Imm(align8(size))))
		}
	}
	// functions (top-level then methods, stable order)
	var fns []*FuncDecl
	fns = append(fns, chk.Prog.Funcs...)
	for _, name := range chk.ClassOrder {
		fns = append(fns, chk.Classes[name].Decl.Methods...)
	}
	for _, f := range fns {
		if err := g.genFunc(f); err != nil {
			return nil, err
		}
	}
	return g.unit, nil
}

func (g *codegen) sizeOf(t *Type) int64 {
	c := &checker{out: g.chk}
	return c.sizeOf(t)
}

func align8(n int64) int64 {
	if n%8 == 0 {
		return n
	}
	return n + 8 - n%8
}

func align16(n int64) int64 {
	if n%16 == 0 {
		return n
	}
	return n + 16 - n%16
}

func (g *codegen) emit(op asm.Mnemonic, args ...asm.Arg) *Line {
	g.lines = append(g.lines, I(op, args...))
	return &g.lines[len(g.lines)-1]
}

func (g *codegen) label(l asm.Arg) {
	g.lines = append(g.lines, L(l.Sym))
}

// newLabel returns a fresh local label as a symbol operand.
func (g *codegen) newLabel(hint string) asm.Arg {
	g.labelN++
	return asm.Sym(".L" + g.fn.Name + "_" + hint + "_" + strconv.Itoa(g.labelN))
}

// push spills t0 to the stack.
func (g *codegen) push() {
	g.emit(opAddi, rSP, rSP, asm.Imm(-8))
	g.emit(opSd, rT0, mem0SP)
}

// pop restores the most recent spill into reg.
func (g *codegen) pop(reg isa.Reg) {
	g.emit(opLd, asm.R(reg), mem0SP)
	g.emit(opAddi, rSP, rSP, asm.Imm(8))
}

func (g *codegen) strLabel(s string) asm.Arg {
	if l, ok := g.strs[s]; ok {
		return l
	}
	l := asm.Sym("__str_" + strconv.Itoa(len(g.strs)))
	g.strs[s] = l
	g.unit.RoData = append(g.unit.RoData, L(l.Sym), I(asm.Asciz, asm.Str(s)))
	return l
}

func (g *codegen) genFunc(f *FuncDecl) error {
	g.fn = &MFunc{Name: f.Mangled, Sig: f.Sig()}
	g.decl = f
	g.unit.Funcs = append(g.unit.Funcs, g.fn)
	g.lines = g.lines[len(g.lines):]

	frame := align16(16 + f.frameSize)
	g.emit(opAddi, rSP, rSP, asm.Imm(-frame))
	g.emit(opSd, rRA, asm.Mem(frame-8, isa.SP))
	g.emit(opSd, rS0, asm.Mem(frame-16, isa.SP))
	g.emit(opAddi, rS0, rSP, asm.Imm(frame))

	// Spill incoming arguments into their frame slots. The checker
	// assigned offsets in declaration order ("this" first for methods),
	// one 8-byte slot per parameter (the checker rejects aggregates).
	argReg := 0
	cursor := int64(0)
	spillNext := func() {
		cursor += 8
		g.emit(opSd, asm.R(isa.A0+isa.Reg(argReg)), g.frameAddr(cursor))
		argReg++
	}
	if f.Class != "" {
		spillNext()
	}
	for range f.Params {
		spillNext()
	}

	if err := g.genBlock(f.Body); err != nil {
		return err
	}
	// Implicit return (void functions and fall-through).
	g.genEpilogue()
	g.fn.Lines = g.lines[:len(g.lines):len(g.lines)]
	return nil
}

// frameAddr renders the memory operand for a checker frame offset.
// The frame below s0 holds [ra][saved s0][locals...]: the first local
// (checker offset 8) lives at s0-24, below the two saved registers.
func (g *codegen) frameAddr(off int64) asm.Arg {
	return asm.Mem(-(off + 16), isa.S0)
}

func (g *codegen) genEpilogue() {
	frame := align16(16 + g.decl.frameSize)
	g.emit(opLd, rRA, asm.Mem(frame-8, isa.SP))
	g.emit(opLd, rS0, asm.Mem(frame-16, isa.SP))
	g.emit(opAddi, rSP, rSP, asm.Imm(frame))
	g.emit(asm.Ret)
}

func (g *codegen) genBlock(b *BlockStmt) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return g.genBlock(s)

	case *DeclStmt:
		if s.Decl.Init == nil {
			// Zero-initialize scalar locals for determinism.
			if s.Decl.Type.Kind != TypeArray && s.Decl.Type.Kind != TypeStruct && s.Decl.Type.Kind != TypeClass {
				g.emit(opSd, rZero, g.frameAddr(s.Decl.frameOffset))
			}
			return nil
		}
		if err := g.genExpr(s.Decl.Init); err != nil {
			return err
		}
		g.emit(opSd, rT0, g.frameAddr(s.Decl.frameOffset))
		return nil

	case *ExprStmt:
		return g.genExpr(s.X)

	case *AssignStmt:
		return g.genAssign(s)

	case *ReturnStmt:
		if s.X != nil {
			if err := g.genExpr(s.X); err != nil {
				return err
			}
			g.emit(asm.Mv, rA0, rT0)
		}
		g.genEpilogue()
		return nil

	case *IfStmt:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		if err := g.genExpr(s.Cond); err != nil {
			return err
		}
		g.emit(asm.Beqz, rT0, elseL)
		if err := g.genBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			g.emit(asm.J, endL)
		}
		g.label(elseL)
		if s.Else != nil {
			if err := g.genStmt(s.Else); err != nil {
				return err
			}
			g.label(endL)
		}
		return nil

	case *WhileStmt:
		head := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, head)
		g.label(head)
		if err := g.genExpr(s.Cond); err != nil {
			return err
		}
		g.emit(asm.Beqz, rT0, end)
		if err := g.genBlock(s.Body); err != nil {
			return err
		}
		g.emit(asm.J, head)
		g.label(end)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		return nil

	case *ForStmt:
		head := g.newLabel("for")
		post := g.newLabel("forpost")
		end := g.newLabel("endfor")
		if s.Init != nil {
			if err := g.genStmt(s.Init); err != nil {
				return err
			}
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, post)
		g.label(head)
		if s.Cond != nil {
			if err := g.genExpr(s.Cond); err != nil {
				return err
			}
			g.emit(asm.Beqz, rT0, end)
		}
		if err := g.genBlock(s.Body); err != nil {
			return err
		}
		g.label(post)
		if s.Post != nil {
			if err := g.genStmt(s.Post); err != nil {
				return err
			}
		}
		g.emit(asm.J, head)
		g.label(end)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		return nil

	case *BreakStmt:
		g.emit(asm.J, g.brk[len(g.brk)-1])
		return nil

	case *ContinueStmt:
		g.emit(asm.J, g.cont[len(g.cont)-1])
		return nil
	}
	return fmt.Errorf("cc: cannot generate statement %T", s)
}

func (g *codegen) genAssign(s *AssignStmt) error {
	// Compute the destination address, spill it, evaluate the value.
	if err := g.genAddr(s.LHS); err != nil {
		return err
	}
	g.push()
	if s.Op != "=" {
		// Compound: load current value first.
		g.emit(opLd, rT0, mem0SP) // address (keep spilled)
		g.emit(opLd, rT0, asm.Mem(0, isa.T0))
		g.push() // current value
		if err := g.genExpr(s.RHS); err != nil {
			return err
		}
		g.emit(asm.Mv, rT1, rT0)
		g.pop(isa.T0) // current value
		g.emit(arithOp(s.Op[:len(s.Op)-1]), rT0, rT0, rT1)
	} else {
		if err := g.genExpr(s.RHS); err != nil {
			return err
		}
	}
	g.pop(isa.T1) // destination address
	g.storeTo(s.LHS.TypeOf(), isa.T1)
	return nil
}

// arithOp returns the mnemonic of a MiniC arithmetic operator.
func arithOp(op string) asm.Mnemonic {
	switch op {
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "%":
		return opRem
	case "&":
		return opAnd
	case "|":
		return opOr
	case "^":
		return opXor
	case "<<":
		return opSll
	case ">>":
		return opSra
	}
	return 0
}

// storeTo writes t0 through the address in reg with the width of t.
func (g *codegen) storeTo(t *Type, reg isa.Reg) {
	g.emit(opSd, rT0, asm.Mem(0, reg))
	_ = t // all MiniC scalars are 8 bytes
}

// genAddr leaves the address of an lvalue in t0.
func (g *codegen) genAddr(e Expr) error {
	switch e := e.(type) {
	case *Ident:
		switch e.Kind {
		case IdentLocal, IdentParam:
			g.emit(opAddi, rT0, rS0, asm.Imm(-(e.Offset + 16)))
		case IdentGlobal:
			g.emit(asm.La, rT0, asm.Sym("g_"+e.Name))
		default:
			return errf(e.Line, "cannot take address of function %s here", e.Name)
		}
		return nil

	case *Unary:
		if e.Op != "*" {
			return errf(e.Line, "not an lvalue")
		}
		return g.genExpr(e.X)

	case *Index:
		// base address/value
		xt := e.X.TypeOf()
		if xt.Kind == TypeArray {
			if err := g.genAddr(e.X); err != nil {
				return err
			}
		} else { // pointer: use its value
			if err := g.genExpr(e.X); err != nil {
				return err
			}
		}
		g.push()
		if err := g.genExpr(e.I); err != nil {
			return err
		}
		size := g.sizeOf(e.TypeOf())
		if xt.Kind == TypePointer && (xt.Elem.Kind == TypeStruct || xt.Elem.Kind == TypeClass) {
			size = g.sizeOf(xt.Elem)
		}
		g.scaleT0(size)
		g.pop(isa.T1)
		g.emit(opAdd, rT0, rT1, rT0)
		return nil

	case *Member:
		xt := e.X.TypeOf()
		if xt.Kind == TypePointer {
			if err := g.genExpr(e.X); err != nil {
				return err
			}
		} else {
			if err := g.genAddr(e.X); err != nil {
				return err
			}
		}
		if e.Off != 0 {
			g.emit(opAddi, rT0, rT0, asm.Imm(e.Off))
		}
		return nil
	}
	return errf(e.Pos(), "expression is not addressable")
}

// scaleT0 multiplies t0 by size (shift when a power of two).
func (g *codegen) scaleT0(size int64) {
	switch size {
	case 1:
	case 8:
		g.emit(opSlli, rT0, rT0, asm.Imm(3))
	case 2:
		g.emit(opSlli, rT0, rT0, asm.Imm(1))
	case 4:
		g.emit(opSlli, rT0, rT0, asm.Imm(2))
	default:
		g.emit(asm.Li, rT1, asm.Imm(size))
		g.emit(opMul, rT0, rT0, rT1)
	}
}

// genExpr leaves the expression value in t0.
func (g *codegen) genExpr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		g.emit(asm.Li, rT0, asm.Imm(e.Val))
		return nil

	case *StrLit:
		g.emit(asm.La, rT0, g.strLabel(e.Val))
		return nil

	case *NullLit:
		g.emit(asm.Li, rT0, asm.Imm(0))
		return nil

	case *SizeofExpr:
		g.emit(asm.Li, rT0, asm.Imm(e.Size))
		return nil

	case *Ident:
		if e.Kind == IdentFunc {
			// Function address materialization — the sensitive pattern
			// the ICall pass rewrites (Listing 2 in the paper).
			ln := g.emit(asm.La, rT0, asm.Sym(e.Func.Mangled))
			ln.Meta = &Meta{
				Kind: MetaFPtrMaterialize,
				Func: e.Func.Mangled,
				Sig:  e.Func.Sig(),
				Reg:  isa.T0,
			}
			return nil
		}
		if e.TypeOf().Kind == TypeArray {
			return g.genAddr(e)
		}
		if err := g.genAddr(e); err != nil {
			return err
		}
		g.emit(opLd, rT0, asm.Mem(0, isa.T0))
		return nil

	case *Unary:
		switch e.Op {
		case "&":
			if id, ok := e.X.(*Ident); ok && id.Kind == IdentFunc {
				ln := g.emit(asm.La, rT0, asm.Sym(id.Func.Mangled))
				ln.Meta = &Meta{Kind: MetaFPtrMaterialize, Func: id.Func.Mangled, Sig: id.Func.Sig(), Reg: isa.T0}
				return nil
			}
			return g.genAddr(e.X)
		case "*":
			if err := g.genExpr(e.X); err != nil {
				return err
			}
			g.emit(opLd, rT0, asm.Mem(0, isa.T0))
			return nil
		case "-":
			if err := g.genExpr(e.X); err != nil {
				return err
			}
			g.emit(asm.Neg, rT0, rT0)
			return nil
		case "~":
			if err := g.genExpr(e.X); err != nil {
				return err
			}
			g.emit(asm.Not, rT0, rT0)
			return nil
		case "!":
			if err := g.genExpr(e.X); err != nil {
				return err
			}
			g.emit(asm.Seqz, rT0, rT0)
			return nil
		}
		return errf(e.Line, "bad unary %s", e.Op)

	case *Binary:
		return g.genBinary(e)

	case *Index, *Member:
		if err := g.genAddr(e); err != nil {
			return err
		}
		// Aggregate-typed member/index expressions evaluate to their
		// address (like arrays); scalars load through it.
		t := e.(Expr).TypeOf()
		if t.Kind != TypeStruct && t.Kind != TypeClass && t.Kind != TypeArray {
			g.emit(opLd, rT0, asm.Mem(0, isa.T0))
		}
		return nil

	case *New:
		if e.Count != nil {
			if err := g.genExpr(e.Count); err != nil {
				return err
			}
			g.scaleT0(e.AllocSize)
		} else {
			g.emit(asm.Li, rT0, asm.Imm(e.AllocSize))
		}
		g.emit(asm.Mv, rA0, rT0)
		g.emit(asm.Call, asm.Sym("__malloc"))
		if e.AllocType.Kind == TypeClass && !e.IsArray {
			// Install the vptr (object construction).
			g.emit(asm.La, rT1, asm.Sym("__vt_"+e.TypeName))
			g.emit(opSd, rT1, asm.Mem(0, isa.A0))
		}
		g.emit(asm.Mv, rT0, rA0)
		return nil

	case *Call:
		return g.genCall(e)
	}
	return errf(e.Pos(), "cannot generate expression")
}

func (g *codegen) genBinary(e *Binary) error {
	// Short-circuit logicals.
	if e.Op == "&&" || e.Op == "||" {
		done := g.newLabel("sc")
		if err := g.genExpr(e.X); err != nil {
			return err
		}
		g.emit(asm.Snez, rT0, rT0)
		if e.Op == "&&" {
			g.emit(asm.Beqz, rT0, done)
		} else {
			g.emit(asm.Bnez, rT0, done)
		}
		if err := g.genExpr(e.Y); err != nil {
			return err
		}
		g.emit(asm.Snez, rT0, rT0)
		g.label(done)
		return nil
	}

	if err := g.genExpr(e.X); err != nil {
		return err
	}
	g.push()
	if err := g.genExpr(e.Y); err != nil {
		return err
	}

	// Pointer arithmetic scaling.
	xt, yt := e.X.TypeOf(), e.Y.TypeOf()
	if (e.Op == "+" || e.Op == "-") && xt.Kind == TypePointer && yt.Kind == TypeInt {
		g.scaleT0(g.sizeOf(xt.Elem))
	}

	g.emit(asm.Mv, rT1, rT0)
	g.pop(isa.T0)
	switch e.Op {
	case "==":
		g.emit(opSub, rT0, rT0, rT1)
		g.emit(asm.Seqz, rT0, rT0)
	case "!=":
		g.emit(opSub, rT0, rT0, rT1)
		g.emit(asm.Snez, rT0, rT0)
	case "<":
		g.emit(opSlt, rT0, rT0, rT1)
	case ">":
		g.emit(opSlt, rT0, rT1, rT0)
	case "<=":
		g.emit(opSlt, rT0, rT1, rT0)
		g.emit(opXori, rT0, rT0, asm.Imm(1))
	case ">=":
		g.emit(opSlt, rT0, rT0, rT1)
		g.emit(opXori, rT0, rT0, asm.Imm(1))
	default:
		op := arithOp(e.Op)
		if op == 0 {
			return errf(e.Line, "bad binary operator %s", e.Op)
		}
		g.emit(op, rT0, rT0, rT1)
	}
	return nil
}

// builtinSym returns the runtime routine behind a builtin.
func builtinSym(name string) string {
	switch name {
	case "print_int":
		return "__print_int"
	case "print_str":
		return "__print_str"
	case "exit":
		return "__exit"
	case "attack_point":
		return "__attack_point"
	}
	return ""
}

// genCall evaluates arguments onto the stack, moves them into a-regs,
// and emits the appropriate call form with metadata.
func (g *codegen) genCall(e *Call) error {
	if e.Builtin != "" {
		if len(e.Args) > 0 {
			if err := g.genExpr(e.Args[0]); err != nil {
				return err
			}
			g.emit(asm.Mv, rA0, rT0)
		}
		g.emit(asm.Call, asm.Sym(builtinSym(e.Builtin)))
		g.emit(asm.Mv, rT0, rA0)
		return nil
	}

	// Virtual call: receiver, then args.
	if e.Virtual {
		m := e.Fun.(*Member)
		recv := m.X
		if recv.TypeOf().Kind == TypePointer {
			if err := g.genExpr(recv); err != nil {
				return err
			}
		} else {
			if err := g.genAddr(recv); err != nil {
				return err
			}
		}
		g.push() // receiver
		for _, a := range e.Args {
			if err := g.genExpr(a); err != nil {
				return err
			}
			g.push()
		}
		for i := len(e.Args) - 1; i >= 0; i-- {
			g.pop(isa.A1 + isa.Reg(i))
		}
		g.pop(isa.A0) // this

		// Register choice: when the argument registers leave a4/a5 free
		// (receiver + up to 3 args), the vtable sequence uses them so
		// that a rewritten ld.ro is eligible for the compressed c.ld.ro
		// encoding (the RVC register set is x8..x15); otherwise fall
		// back to t0/t1.
		base, target := isa.T0, isa.T1
		if len(e.Args) <= 3 {
			base, target = isa.A5, isa.A4
		}
		// vptr load (the object is writable memory: a plain ld).
		g.emit(opLd, asm.R(base), asm.Mem(0, isa.A0)).Comment = "vptr"
		// vtable slot load — the sensitive load (ROLoad-md metadata).
		ln := g.emit(opLd, asm.R(target), asm.Mem(int64(e.Slot)*8, base))
		ln.Meta = &Meta{
			Kind:  MetaVTableLoad,
			Class: e.Class,
			Slot:  e.Slot,
			Reg:   base,
			Off:   int64(e.Slot) * 8,
			Sig:   e.FType.Sig(),
		}
		ln.Comment = "vtable slot " + itoa(int64(e.Slot))
		jump := g.emit(opJalr, asm.R(target))
		jump.Meta = &Meta{Kind: MetaVCallJump, Class: e.Class, Slot: e.Slot, Reg: target, Sig: e.FType.Sig()}
		g.emit(asm.Mv, rT0, rA0)
		return nil
	}

	// Direct call.
	if e.Direct != nil {
		for _, a := range e.Args {
			if err := g.genExpr(a); err != nil {
				return err
			}
			g.push()
		}
		for i := len(e.Args) - 1; i >= 0; i-- {
			g.pop(isa.A0 + isa.Reg(i))
		}
		g.emit(asm.Call, asm.Sym(e.Direct.Mangled))
		g.emit(asm.Mv, rT0, rA0)
		return nil
	}

	// Indirect call through a function-pointer value.
	if err := g.genExpr(e.Fun); err != nil {
		return err
	}
	g.push() // target
	for _, a := range e.Args {
		if err := g.genExpr(a); err != nil {
			return err
		}
		g.push()
	}
	for i := len(e.Args) - 1; i >= 0; i-- {
		g.pop(isa.A0 + isa.Reg(i))
	}
	g.pop(isa.T0)
	jump := g.emit(opJalr, rT0)
	jump.Meta = &Meta{Kind: MetaICallJump, Reg: isa.T0, Sig: e.FType.Sig()}
	g.emit(asm.Mv, rT0, rA0)
	return nil
}
