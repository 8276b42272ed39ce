package harden

import (
	"strconv"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/isa"
)

// RetGuard implements the backward-edge application sketched in the
// paper's Section IV-C: "it can be applied to backward control-flow
// transfers too, where the allowlists are sets of legitimate return
// sites".
//
// The transformation changes the return-address convention:
//
//   - every call site materializes ra as a pointer to a *return-site
//     table entry* in a read-only page keyed RetKey, instead of the raw
//     return address:
//
//     call f                 la   ra, __retsite_N
//     ->   j    f
//     __retret_N:
//
//     (and __retsite_N: .quad __retret_N lives in .rodata.key.<RetKey>)
//
//   - every return loads the real target through ld.ro, so a smashed
//     return slot can only ever name a legitimate return site:
//
//     ret             ->     ld.ro t6, (ra), RetKey
//     jr   t6
//
// The runtime's own call/return sites are converted too (the kernel
// loader runs the same binary), so the whole user-mode program obeys
// the convention. Like the forward-edge schemes, the residual surface
// is reuse of *other* entries in the same allowlist.
type retGuardPass struct{}

// RetGuard returns the backward-edge protection pass.
func RetGuard() Pass { return retGuardPass{} }

func (retGuardPass) Name() string { return "RetGuard" }

// RetKey is the page key of the return-site tables.
const RetKey = 900

func (retGuardPass) Apply(u *cc.Unit) error {
	siteN := 0
	var sites []cc.Line // keyed table entries
	ra, t6 := asm.R(isa.RA), asm.R(isa.T6)

	// site appends "la ra, __retsite_N", then jump, then the return
	// label __retret_N that the new table entry names.
	site := func(out []cc.Line, jump cc.Line) []cc.Line {
		siteN++
		n := strconv.Itoa(siteN)
		entry, back := "__retsite_"+n, "__retret_"+n
		sites = append(sites, cc.L(entry), cc.I(asm.Quad, asm.Sym(back)))
		return append(out, cc.I(asm.La, ra, asm.Sym(entry)), jump, cc.L(back))
	}

	match := func(l *cc.Line) bool {
		return l.Op == asm.Call && l.N == 1 || l.Op == asm.Ret || l.Op == opJalr && l.N == 1
	}
	rewrite(u, match, func(out []cc.Line, l *cc.Line) []cc.Line {
		switch l.Op {
		case asm.Call:
			return site(out, cc.I(asm.J, l.Args[0]))
		case asm.Ret:
			ro := cc.I(opLdRO, t6, asm.Ind(isa.RA), asm.Key(RetKey))
			ro.Comment = "return site via keyed table"
			return append(out, ro, cc.I(asm.Jr, t6))
		}
		// jalr rs (rd=ra implicitly): an indirect or virtual call.
		jump := cc.I(asm.Jr, l.Args[0])
		jump.Meta = l.Meta
		return site(out, jump)
	})

	u.RetGuard = &cc.RetGuardInfo{
		Key:     RetKey,
		Sites:   sites,
		NumSite: siteN,
	}
	return nil
}
