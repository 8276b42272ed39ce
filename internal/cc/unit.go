package cc

import (
	"sort"
	"strconv"

	"roload/internal/asm"
	"roload/internal/isa"
)

// MetaKind classifies the sensitive-operation metadata the code
// generator attaches to machine lines. This is the analogue of the
// paper's ROLoad-md metadata on LLVM IR loads / MachineMemOperands:
// the front-end marks *what* is sensitive; the hardening passes decide
// *how* to protect it.
type MetaKind int

const (
	MetaNone MetaKind = iota
	// MetaVTableLoad marks the ld that fetches a function pointer out
	// of a vtable (operand register holds the vtable base).
	MetaVTableLoad
	// MetaFPtrMaterialize marks the la that materializes the address of
	// an address-taken function into a register.
	MetaFPtrMaterialize
	// MetaICallJump marks the jalr of an indirect call through a
	// function-pointer value.
	MetaICallJump
	// MetaVCallJump marks the jalr of a virtual method call.
	MetaVCallJump
)

// Meta carries the details hardening passes need.
type Meta struct {
	Kind  MetaKind
	Class string  // static receiver class (vtable ops)
	Slot  int     // vtable slot index
	Func  string  // mangled function name (fptr materialization)
	Sig   string  // canonical function type signature
	Reg   isa.Reg // register holding the pointer/target
	Off   int64   // byte offset within the table (vtable loads)
}

// Line is one line of generated machine code: a typed assembler
// statement (a label definition, or a mnemonic with typed operands)
// plus the compiler's metadata and a display comment.
type Line struct {
	asm.Line
	Meta    *Meta
	Comment string
}

// I builds an instruction line of at most three operands.
func I(op asm.Mnemonic, args ...asm.Arg) Line {
	l := Line{Line: asm.Line{Op: op}}
	l.N = uint8(copy(l.Args[:], args))
	return l
}

// L builds a label line.
func L(label string) Line { return Line{Line: asm.Line{Label: label}} }

// appendText appends l as one line of assembly text.
func (l *Line) appendText(b []byte) []byte {
	if l.Label == "" {
		b = append(b, '\t')
	}
	b = l.Line.Append(b)
	if l.Comment != "" {
		b = append(append(b, "\t# "...), l.Comment...)
	}
	return append(b, '\n')
}

// MFunc is one compiled function.
type MFunc struct {
	Name  string // mangled symbol
	Sig   string
	Lines []Line
}

// VTableDef describes one emitted vtable.
type VTableDef struct {
	Class   string
	Symbol  string
	Slots   []string // mangled method symbols in slot order
	ClassID int
	Root    string // root class of the hierarchy
	// Key is 0 while the vtable lives in plain .rodata; hardening
	// passes set it when moving the table to a keyed section.
	Key uint16
}

// GFPTEntry is one global function pointer table slot created by the
// ICall pass.
type GFPTEntry struct {
	Symbol string // gfpt entry symbol
	Target string // function it points to
	Sig    string
	Key    uint16
}

// Unit is a compiled translation unit before final assembly printing.
// Hardening passes transform Units in place.
type Unit struct {
	Checked *Checked
	Funcs   []*MFunc
	RoData  []Line // plain .rodata payload (string literals etc.)
	Data    []Line
	Bss     []Line
	VTables []VTableDef

	// GFPTs is populated by the ICall hardening pass.
	GFPTs []GFPTEntry

	// RetGuard is populated by the backward-edge pass: the return-site
	// table entries and the key they are sealed with. When set, the
	// emitted runtime also follows the keyed-return convention.
	RetGuard *RetGuardInfo

	// HardenedBy records which passes ran (for reporting).
	HardenedBy []string
}

// RetGuardInfo carries the backward-edge pass results.
type RetGuardInfo struct {
	Key     uint16
	Sites   []Line // label/.quad pairs for the keyed return-site table
	NumSite int
}

// FindFunc returns the function with the given mangled name.
func (u *Unit) FindFunc(name string) (*MFunc, bool) {
	for _, f := range u.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// VTableKeyBase is the first key used for per-hierarchy vtable keys by
// the VCall pass; GFPTKeyBase is the first key for per-signature GFPT
// sections; VTUnifiedKey is the single vtable key used by the ICall
// pass (better TLB/cache locality, as the paper observes).
const (
	VTUnifiedKey  = 9
	VTableKeyBase = 100
	GFPTKeyBase   = 500
)

// Assembly renders the unit as one assembler source file, appending
// the fixed runtime (entry point, allocator, output routines). It is
// for display: building links the typed statements of Lines, which
// assemble to the same image as this text.
func (u *Unit) Assembly() string {
	b := make([]byte, 0, u.assemblyLen())
	b = append(b, "# generated by the roload MiniC compiler\n\t.text\n"...)
	for _, f := range u.Funcs {
		b = append(append(append(b, '\n'), f.Name...), ":\n"...)
		for i := range f.Lines {
			b = f.Lines[i].appendText(b)
		}
	}
	if u.RetGuard != nil {
		b = append(b, runtimeAsmRetGuard...)
	} else {
		b = append(b, runtimeAsm...)
	}

	// Plain read-only data. __ro_start/__ro_end bound every read-only
	// page (used by the VTint baseline's range checks).
	b = append(b, "\n\t.rodata\n__ro_start:\n"...)
	for i := range u.RoData {
		b = u.RoData[i].appendText(b)
	}
	appendTable := func(b []byte, symbol string, slots []string) []byte {
		b = append(append(b, symbol...), ":\n"...)
		for _, m := range slots {
			b = append(append(append(b, "\t.quad "...), m...), '\n')
		}
		return b
	}
	for _, vt := range u.VTables {
		if vt.Key == 0 {
			b = appendTable(b, vt.Symbol, vt.Slots)
		}
	}
	b = append(b, "__ro_pad: .quad 0\n__ro_end:\n"...)

	// Keyed sections: vtables moved by VCall/ICall, GFPT entries, and
	// the RetGuard return-site table.
	for _, k := range u.keys() {
		b = append(b, "\n\t.section .rodata.key."...)
		b = append(strconv.AppendUint(b, uint64(k), 10), '\n')
		for _, vt := range u.VTables {
			if vt.Key == k {
				b = appendTable(b, vt.Symbol, vt.Slots)
			}
		}
		for _, g := range u.GFPTs {
			if g.Key == k {
				b = appendTable(b, g.Symbol, []string{g.Target})
			}
		}
		if u.RetGuard != nil && u.RetGuard.Key == k {
			for i := range u.RetGuard.Sites {
				b = u.RetGuard.Sites[i].appendText(b)
			}
		}
	}

	if len(u.Data) > 0 {
		b = append(b, "\n\t.data\n"...)
		for i := range u.Data {
			b = u.Data[i].appendText(b)
		}
	}
	if len(u.Bss) > 0 {
		b = append(b, "\n\t.bss\n"...)
		for i := range u.Bss {
			b = u.Bss[i].appendText(b)
		}
	}
	return string(b)
}

// keys returns the keys of the unit's keyed sections in ascending order.
func (u *Unit) keys() []uint16 {
	var keys []uint16
	add := func(k uint16) {
		for _, have := range keys {
			if have == k {
				return
			}
		}
		keys = append(keys, k)
	}
	for _, vt := range u.VTables {
		if vt.Key != 0 {
			add(vt.Key)
		}
	}
	for _, g := range u.GFPTs {
		add(g.Key)
	}
	if u.RetGuard != nil {
		add(u.RetGuard.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Lines hands the unit's statements to emit in the order Assembly
// prints them, runtime included: the typed program asm.AssembleLines
// links. emit must not keep the pointer.
func (u *Unit) Lines(emit func(*asm.Line)) {
	var tmp asm.Line
	sect := func(name string) {
		tmp = asm.Line{Op: asm.Sect, N: 1, Args: [3]asm.Arg{asm.Sym(name)}}
		emit(&tmp)
	}
	label := func(name string) {
		tmp = asm.Line{Label: name}
		emit(&tmp)
	}
	quad := func(a asm.Arg) {
		tmp = asm.Line{Op: asm.Quad, N: 1, Args: [3]asm.Arg{a}}
		emit(&tmp)
	}
	lines := func(ls []Line) {
		for i := range ls {
			emit(&ls[i].Line)
		}
	}
	table := func(symbol string, slots []string) {
		label(symbol)
		for _, m := range slots {
			quad(asm.Sym(m))
		}
	}

	sect(".text")
	for _, f := range u.Funcs {
		label(f.Name)
		lines(f.Lines)
	}
	rt := runtimeLines
	if u.RetGuard != nil {
		rt = runtimeLinesRetGuard
	}
	for i := range rt {
		emit(&rt[i])
	}

	sect(".rodata")
	label("__ro_start")
	lines(u.RoData)
	for _, vt := range u.VTables {
		if vt.Key == 0 {
			table(vt.Symbol, vt.Slots)
		}
	}
	label("__ro_pad")
	quad(asm.Imm(0))
	label("__ro_end")

	for _, k := range u.keys() {
		sect(".rodata.key." + strconv.Itoa(int(k)))
		for _, vt := range u.VTables {
			if vt.Key == k {
				table(vt.Symbol, vt.Slots)
			}
		}
		for _, g := range u.GFPTs {
			if g.Key == k {
				label(g.Symbol)
				quad(asm.Sym(g.Target))
			}
		}
		if u.RetGuard != nil && u.RetGuard.Key == k {
			lines(u.RetGuard.Sites)
		}
	}

	if len(u.Data) > 0 {
		sect(".data")
		lines(u.Data)
	}
	if len(u.Bss) > 0 {
		sect(".bss")
		lines(u.Bss)
	}
}

// assemblyLen estimates the length of Assembly's output, to size its
// buffer once in the common case: the fixed text, and per line its
// names and a typical width for everything else.
func (u *Unit) assemblyLen() int {
	n := 512 + max(len(runtimeAsm), len(runtimeAsmRetGuard))
	lines := func(ls []Line) {
		for i := range ls {
			l := &ls[i]
			n += 16 + len(l.Label) + len(l.Comment)
			for _, a := range l.Args[:l.N] {
				n += len(a.Sym)
			}
		}
	}
	for _, f := range u.Funcs {
		n += 3 + len(f.Name)
		lines(f.Lines)
	}
	lines(u.RoData)
	lines(u.Data)
	lines(u.Bss)
	for _, vt := range u.VTables {
		n += len(vt.Symbol) + 2
		for _, m := range vt.Slots {
			n += len(m) + len("\t.quad \n")
		}
	}
	for _, g := range u.GFPTs {
		n += len(g.Symbol) + 2 + len(g.Target) + len("\t.quad \n") + len("\n\t.section .rodata.key.65535\n")
	}
	if u.RetGuard != nil {
		lines(u.RetGuard.Sites)
	}
	return n
}

// CountMeta tallies metadata kinds (tests and reporting).
func (u *Unit) CountMeta(kind MetaKind) int {
	n := 0
	for _, f := range u.Funcs {
		for i := range f.Lines {
			if l := &f.Lines[i]; l.Meta != nil && l.Meta.Kind == kind {
				n++
			}
		}
	}
	return n
}

// runtimeAsm is the fixed runtime linked into every program: process
// entry, a bump allocator over brk, decimal integer output, string
// output, and exit. It uses only a0-a7, t0-t2.
const runtimeAsm = `
# ---- runtime ----
_start:
	call main
	li a7, 93
	ecall                # exit(main())

__exit:
	li a7, 93
	ecall

# __attack_point: raise the harness hook (syscall 9000); a no-op when
# no harness is attached.
__attack_point:
	li a7, 9000
	ecall
	ret

# __malloc(n) -> zeroed memory (fresh brk pages are zero-filled)
__malloc:
	addi a0, a0, 15
	andi a0, a0, -16
	la t0, __heap_cur
	ld t1, 0(t0)         # current bump pointer
	bnez t1, __malloc_have_heap
	# first call: discover program break
	mv t2, a0
	li a0, 0
	li a7, 214
	ecall                # a0 = current brk
	mv t1, a0
	sd t1, 8(t0)         # __heap_end = brk
	mv a0, t2
__malloc_have_heap:
	ld t2, 8(t0)         # heap end
	add a1, t1, a0       # new bump
	bleu a1, t2, __malloc_done
	# grow: request new break = max(new bump, end + 256 KiB)
	mv a2, a1
	li a3, 262144
	add a3, t2, a3
	bgeu a2, a3, __malloc_grow
	mv a2, a3
__malloc_grow:
	mv a4, a0            # save n
	mv a5, a1            # save new bump
	mv a0, a2
	li a7, 214
	ecall                # brk(new end); returns new brk
	sd a0, 8(t0)
	mv a0, a4
	mv a1, a5
__malloc_done:
	sd a1, 0(t0)
	sub a0, a1, a0       # return old bump
	ret

# __print_int(v): decimal + newline to stdout
__print_int:
	addi sp, sp, -48
	sd ra, 40(sp)
	li t0, 10
	sb t0, 31(sp)        # trailing newline
	addi t1, sp, 31      # cursor
	mv t2, a0
	bgez t2, __pi_loop
	neg t2, t2
__pi_loop:
	li t0, 10
	remu a2, t2, t0
	addi a2, a2, 48
	addi t1, t1, -1
	sb a2, 0(t1)
	divu t2, t2, t0
	bnez t2, __pi_loop
	bgez a0, __pi_pos
	li a2, 45            # '-'
	addi t1, t1, -1
	sb a2, 0(t1)
__pi_pos:
	addi a2, sp, 32
	sub a2, a2, t1       # length
	mv a1, t1
	li a0, 1
	li a7, 64
	ecall
	ld ra, 40(sp)
	addi sp, sp, 48
	ret

# __print_str(p): nul-terminated string to stdout
__print_str:
	mv a1, a0
	mv t0, a0
__ps_len:
	lbu t1, 0(t0)
	beqz t1, __ps_write
	addi t0, t0, 1
	j __ps_len
__ps_write:
	sub a2, t0, a1
	li a0, 1
	li a7, 64
	ecall
	ret

	.data
__heap_cur: .quad 0
__heap_end: .quad 0
`

// runtimeLines and runtimeLinesRetGuard are the runtimes as typed
// statements, lexed once from the text Assembly prints.
var (
	runtimeLines         = mustParseLines(runtimeAsm)
	runtimeLinesRetGuard = mustParseLines(runtimeAsmRetGuard)
)

func mustParseLines(src string) []asm.Line {
	lines, err := asm.ParseLines(src)
	if err != nil {
		panic("cc: runtime: " + err.Error())
	}
	return lines
}

// runtimeAsmRetGuard is the runtime variant used when the RetGuard
// backward-edge pass is active: every runtime call site materializes
// ra as a keyed return-site-table entry, and every runtime return
// resolves its target through ld.ro (key 900 = harden.RetKey).
const runtimeAsmRetGuard = `
# ---- runtime (RetGuard convention) ----
_start:
	la ra, __rt_site_0
	j main
__rt_ret_0:
	li a7, 93
	ecall                # exit(main())

__exit:
	li a7, 93
	ecall

__attack_point:
	li a7, 9000
	ecall
	ld.ro t6, (ra), 900
	jr t6

__malloc:
	addi a0, a0, 15
	andi a0, a0, -16
	la t0, __heap_cur
	ld t1, 0(t0)
	bnez t1, __malloc_have_heap
	mv t2, a0
	li a0, 0
	li a7, 214
	ecall
	mv t1, a0
	sd t1, 8(t0)
	mv a0, t2
__malloc_have_heap:
	ld t2, 8(t0)
	add a1, t1, a0
	bleu a1, t2, __malloc_done
	mv a2, a1
	li a3, 262144
	add a3, t2, a3
	bgeu a2, a3, __malloc_grow
	mv a2, a3
__malloc_grow:
	mv a4, a0
	mv a5, a1
	mv a0, a2
	li a7, 214
	ecall
	sd a0, 8(t0)
	mv a0, a4
	mv a1, a5
__malloc_done:
	sd a1, 0(t0)
	sub a0, a1, a0
	ld.ro t6, (ra), 900
	jr t6

__print_int:
	addi sp, sp, -48
	sd ra, 40(sp)
	li t0, 10
	sb t0, 31(sp)
	addi t1, sp, 31
	mv t2, a0
	bgez t2, __pi_loop
	neg t2, t2
__pi_loop:
	li t0, 10
	remu a2, t2, t0
	addi a2, a2, 48
	addi t1, t1, -1
	sb a2, 0(t1)
	divu t2, t2, t0
	bnez t2, __pi_loop
	bgez a0, __pi_pos
	li a2, 45
	addi t1, t1, -1
	sb a2, 0(t1)
__pi_pos:
	addi a2, sp, 32
	sub a2, a2, t1
	mv a1, t1
	li a0, 1
	li a7, 64
	ecall
	ld ra, 40(sp)
	addi sp, sp, 48
	ld.ro t6, (ra), 900
	jr t6

__print_str:
	mv a1, a0
	mv t0, a0
__ps_len:
	lbu t1, 0(t0)
	beqz t1, __ps_write
	addi t0, t0, 1
	j __ps_len
__ps_write:
	sub a2, t0, a1
	li a0, 1
	li a7, 64
	ecall
	ld.ro t6, (ra), 900
	jr t6

	.section .rodata.key.900
__rt_site_0: .quad __rt_ret_0

	.data
__heap_cur: .quad 0
__heap_end: .quad 0
`
