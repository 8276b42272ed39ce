// Package harden implements the four program-hardening passes
// evaluated in the paper, operating on the compiler's machine-level
// Unit via the ROLoad-md-style metadata the code generator attaches:
//
//   - VCall  — the paper's virtual-call protection (Section IV-A):
//     vtables move into read-only pages keyed per class hierarchy, and
//     each vtable slot load becomes an ld.ro with the hierarchy key.
//   - ICall  — the paper's type-based forward-edge CFI (Section IV-B):
//     address-taken functions get GFPT entries in read-only pages keyed
//     by function type; function-pointer materializations are redirected
//     to GFPT entries; indirect calls load the real target with ld.ro.
//     VTables share one unified key (the TLB/cache-locality choice the
//     paper credits for ICall's ~0% overhead).
//   - VTint  — the software baseline for VCall: range checks that the
//     vtable pointer targets read-only memory before every vtable load.
//   - ClassicCFI — the software baseline for ICall: an ID word (a nop
//     at ISA level) at each function entry, and a load/compare/branch
//     check before every indirect transfer.
package harden

import (
	"fmt"
	"sort"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/isa"
)

// The mnemonics of the ISA instructions the passes insert.
const (
	opAddi   = asm.Mnemonic(isa.ADDI)
	opBgeu   = asm.Mnemonic(isa.BGEU)
	opBltu   = asm.Mnemonic(isa.BLTU)
	opBne    = asm.Mnemonic(isa.BNE)
	opJalr   = asm.Mnemonic(isa.JALR)
	opLdRO   = asm.Mnemonic(isa.LDRO)
	opLui    = asm.Mnemonic(isa.LUI)
	opLwu    = asm.Mnemonic(isa.LWU)
	opEbreak = asm.Mnemonic(isa.EBREAK)
)

// Pass transforms a compiled Unit in place.
type Pass interface {
	Name() string
	Apply(u *cc.Unit) error
}

// Apply runs passes in order, recording them on the unit.
func Apply(u *cc.Unit, passes ...Pass) error {
	for _, p := range passes {
		if err := p.Apply(u); err != nil {
			return fmt.Errorf("harden: %s: %w", p.Name(), err)
		}
		u.HardenedBy = append(u.HardenedBy, p.Name())
	}
	return nil
}

// rewrite replaces, in every function, each line that match accepts
// with the lines expand appends for it to out. A function's lines are
// copied only once it has a line to rewrite.
func rewrite(u *cc.Unit, match func(l *cc.Line) bool, expand func(out []cc.Line, l *cc.Line) []cc.Line) {
	for _, f := range u.Funcs {
		var out []cc.Line
		for i := range f.Lines {
			l := &f.Lines[i]
			switch {
			case match(l):
				if out == nil {
					out = append(make([]cc.Line, 0, len(f.Lines)+len(f.Lines)/4+8), f.Lines[:i]...)
				}
				out = expand(out, l)
			case out != nil:
				out = append(out, *l)
			}
		}
		if out != nil {
			f.Lines = out
		}
	}
}

// tagged returns a match for rewrite that accepts lines carrying
// metadata of one of the kinds.
func tagged(kinds ...cc.MetaKind) func(l *cc.Line) bool {
	return func(l *cc.Line) bool {
		if l.Meta == nil {
			return false
		}
		for _, k := range kinds {
			if l.Meta.Kind == k {
				return true
			}
		}
		return false
	}
}

// hierarchyKey returns the ROLoad key for a class's vtable under the
// VCall policy: one key per class hierarchy. A call site whose static
// receiver is Base must accept any vtable in Base's hierarchy (the
// runtime object may be any derived class), so keying finer than the
// hierarchy would fault on legal dispatch.
func hierarchyKey(u *cc.Unit, class string) (uint16, error) {
	info, ok := u.Checked.Classes[class]
	if !ok {
		return 0, fmt.Errorf("unknown class %q", class)
	}
	root := info
	for root.Base != nil {
		root = root.Base
	}
	key := cc.VTableKeyBase + root.ID
	if key > isa.MaxKey {
		return 0, fmt.Errorf("class hierarchy key %d exceeds key space", key)
	}
	return uint16(key), nil
}

// --- VCall -----------------------------------------------------------

type vcallPass struct{}

// VCall returns the paper's virtual-call protection pass.
func VCall() Pass { return vcallPass{} }

func (vcallPass) Name() string { return "VCall" }

func (vcallPass) Apply(u *cc.Unit) error {
	// Move every vtable into the keyed section for its hierarchy.
	for i := range u.VTables {
		key, err := hierarchyKey(u, u.VTables[i].Class)
		if err != nil {
			return err
		}
		u.VTables[i].Key = key
	}
	// Rewrite tagged vtable loads: ld rd, off(rs) -> [addi rs, rs, off;]
	// ld.ro rd, (rs), key. The extra addi mirrors the paper's remark
	// that ld.ro carries no offset immediate.
	var err error
	rewrite(u, tagged(cc.MetaVTableLoad), func(out []cc.Line, l *cc.Line) []cc.Line {
		if err != nil {
			return append(out, *l)
		}
		key, kerr := hierarchyKey(u, l.Meta.Class)
		if kerr != nil {
			err = kerr
			return append(out, *l)
		}
		return roLoadSeq(out, l, key)
	})
	return err
}

// roLoadSeq appends the ld.ro form of a tagged "ld rd, off(rs)" line,
// preserving the metadata on the ld.ro itself.
func roLoadSeq(out []cc.Line, l *cc.Line, key uint16) []cc.Line {
	rs := asm.R(l.Meta.Reg)
	if l.Meta.Off != 0 {
		out = append(out, cc.I(opAddi, rs, rs, asm.Imm(l.Meta.Off)))
	}
	ro := cc.I(opLdRO, l.Args[0], asm.Ind(l.Meta.Reg), asm.Key(key))
	ro.Meta = l.Meta
	ro.Comment = l.Comment
	return append(out, ro)
}

// --- ICall -----------------------------------------------------------

type icallPass struct{}

// ICall returns the paper's type-based forward-edge CFI pass.
func ICall() Pass { return icallPass{} }

func (icallPass) Name() string { return "ICall" }

// SigKeys computes the deterministic signature->key assignment used by
// the ICall pass (exported for tests and the attack harness).
func SigKeys(u *cc.Unit) map[string]uint16 {
	sigs := make(map[string]bool)
	for name := range u.Checked.AddressTaken {
		sigs[u.Checked.SigOf[name]] = true
	}
	ordered := make([]string, 0, len(sigs))
	for s := range sigs {
		ordered = append(ordered, s)
	}
	sort.Strings(ordered)
	keys := make(map[string]uint16, len(ordered))
	for i, s := range ordered {
		keys[s] = uint16(cc.GFPTKeyBase + i)
	}
	return keys
}

// GFPTSymbol names the GFPT entry for a function (exported so attacks
// and tests can locate entries).
func GFPTSymbol(fn string) string {
	out := make([]byte, 0, len(fn)+8)
	for i := 0; i < len(fn); i++ {
		c := fn[i]
		if c == '$' {
			out = append(out, '_')
		} else {
			out = append(out, c)
		}
	}
	return "__gfpt_" + string(out)
}

func (icallPass) Apply(u *cc.Unit) error {
	keys := SigKeys(u)
	for _, k := range keys {
		if int(k) > isa.MaxKey {
			return fmt.Errorf("GFPT key %d exceeds key space", k)
		}
	}

	// Build GFPT entries for every address-taken function, grouped by
	// signature key (deterministic order).
	names := make([]string, 0, len(u.Checked.AddressTaken))
	for name := range u.Checked.AddressTaken {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sig := u.Checked.SigOf[name]
		u.GFPTs = append(u.GFPTs, cc.GFPTEntry{
			Symbol: GFPTSymbol(name),
			Target: name,
			Sig:    sig,
			Key:    keys[sig],
		})
	}

	// Unified key for every vtable (paper: "ICall uses a unified key
	// for all VTables", giving better TLB and cache locality).
	for i := range u.VTables {
		u.VTables[i].Key = cc.VTUnifiedKey
	}

	match := tagged(cc.MetaVTableLoad, cc.MetaFPtrMaterialize, cc.MetaICallJump)
	rewrite(u, match, func(out []cc.Line, l *cc.Line) []cc.Line {
		switch l.Meta.Kind {
		case cc.MetaVTableLoad:
			return roLoadSeq(out, l, cc.VTUnifiedKey)
		case cc.MetaFPtrMaterialize:
			// la rd, f  ->  la rd, __gfpt_f   (Listing 2 of the paper)
			nl := cc.I(asm.La, l.Args[0], asm.Sym(GFPTSymbol(l.Meta.Func)))
			nl.Meta = l.Meta
			nl.Comment = "gfpt entry for " + l.Meta.Func
			return append(out, nl)
		}
		// MetaICallJump: insert the protected load of the real target
		// before the jump (Listing 3, lines 2 and 5).
		key := keys[l.Meta.Sig]
		if key == 0 {
			// No address-taken function has this signature; the call
			// can never be valid. Trap deterministically.
			return append(out, cc.I(opEbreak), *l)
		}
		ro := cc.I(opLdRO, asm.R(l.Meta.Reg), asm.Ind(l.Meta.Reg), asm.Key(key))
		ro.Meta = &cc.Meta{Kind: cc.MetaICallJump, Sig: l.Meta.Sig, Reg: l.Meta.Reg}
		ro.Comment = "icall target via gfpt"
		return append(out, ro, *l)
	})
	return nil
}

// --- VTint baseline ---------------------------------------------------

type vtintPass struct{}

// VTint returns the software range-check baseline from NDSS'15, ported
// exactly as the paper describes: "range-based checks before VTable
// loading to check whether VTables are loaded from read-only memory".
func VTint() Pass { return vtintPass{} }

func (vtintPass) Name() string { return "VTint" }

func (vtintPass) Apply(u *cc.Unit) error {
	used := false
	t2, fail := asm.R(isa.T2), asm.Sym("__vtint_fail")
	rewrite(u, tagged(cc.MetaVTableLoad), func(out []cc.Line, l *cc.Line) []cc.Line {
		used = true
		reg := asm.R(l.Meta.Reg)
		// la expands to 2 instructions; the whole check adds 6.
		return append(out,
			cc.I(asm.La, t2, asm.Sym("__ro_start")),
			cc.I(opBltu, reg, t2, fail),
			cc.I(asm.La, t2, asm.Sym("__ro_end")),
			cc.I(opBgeu, reg, t2, fail),
			*l,
		)
	})
	if used {
		u.Funcs = append(u.Funcs, &cc.MFunc{Name: fail.Sym, Lines: []cc.Line{cc.I(opEbreak)}})
	}
	return nil
}

// --- Classic label-based CFI baseline ----------------------------------

// CFIID is the label embedded at function entries by the ClassicCFI
// baseline. It is encoded inside a "lui zero, CFIID" instruction,
// which the ISA treats as a nop (writes to x0 are discarded) — exactly
// the "ID which is equivalent to nop at the ISA level" of Section V-C1.
const CFIID = 0x7c0de

type cfiPass struct{}

// ClassicCFI returns the label-based CFI baseline the paper ports to
// RISC-V: one shared ID for all indirect-call targets (coarse-grained,
// hence the weaker policy the paper contrasts ICall against).
func ClassicCFI() Pass { return cfiPass{} }

func (cfiPass) Name() string { return "ClassicCFI" }

// cfiIDWord is the raw encoding of "lui zero, CFIID".
func cfiIDWord() uint32 {
	return isa.MustEncode(isa.Inst{Op: isa.LUI, Rd: isa.Zero, Imm: int64(CFIID) << 12})
}

func (cfiPass) Apply(u *cc.Unit) error {
	idWord := cfiIDWord()
	used := false

	// Prepend the ID nop to every function that can be an indirect
	// target (every MiniC function: address-taken sets are a static
	// under-approximation the classic solutions did not rely on).
	id := cc.I(opLui, asm.R(isa.Zero), asm.Hex(CFIID))
	id.Comment = "CFI ID (nop)"
	for _, f := range u.Funcs {
		f.Lines = append(append(make([]cc.Line, 0, len(f.Lines)+1), id), f.Lines...)
	}

	t2, t3, fail := asm.R(isa.T2), asm.R(isa.T3), asm.Sym("__cfi_fail")
	rewrite(u, tagged(cc.MetaICallJump, cc.MetaVCallJump), func(out []cc.Line, l *cc.Line) []cc.Line {
		used = true
		// lw from the target (text pages are readable), compare with
		// the expected ID word, trap on mismatch.
		return append(out,
			cc.I(opLwu, t2, asm.Mem(0, l.Meta.Reg)),
			cc.I(asm.Li, t3, asm.Hex(int64(idWord))),
			cc.I(opBne, t2, t3, fail),
			*l,
		)
	})
	if used {
		u.Funcs = append(u.Funcs, &cc.MFunc{Name: fail.Sym, Lines: []cc.Line{cc.I(opEbreak)}})
	}
	return nil
}
