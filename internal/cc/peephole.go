package cc

import "roload/internal/asm"

// Optimize runs the peephole optimizer over every function. The
// stack-machine code generator is deliberately naive (uniform code
// shape keeps the hardening comparisons clean); this pass removes its
// most common redundancies without disturbing labels, metadata, or the
// instrumentation points the hardening passes rewrite:
//
//	push;pop   addi sp,sp,-8 ; sd t0,0(sp) ; ld R,0(sp) ; addi sp,sp,8
//	           -> mv R, t0   (the dominant argument-move pattern)
//	mv x,x     -> (removed)
//	addi x,x,0 -> (removed)
//
// Windows never cross labels (branch targets must stay stable) or
// lines carrying metadata.
func Optimize(u *Unit) {
	for _, f := range u.Funcs {
		f.Lines = peephole(f.Lines)
	}
	u.HardenedBy = append(u.HardenedBy, "peephole")
}

// anyArg matches any operand in isOp.
var anyArg asm.Arg

// isOp reports whether l is an untagged instruction op with the given
// operands, anyArg matching any.
func isOp(l *Line, op asm.Mnemonic, args ...asm.Arg) bool {
	if l.Label != "" || l.Op != op || int(l.N) != len(args) || l.Meta != nil {
		return false
	}
	for i, a := range args {
		if a != anyArg && l.Args[i] != a {
			return false
		}
	}
	return true
}

func peephole(lines []Line) []Line {
	out := make([]Line, 0, len(lines))
	for i := 0; i < len(lines); i++ {
		l := &lines[i]
		// Window: push t0 / pop R.
		if i+3 < len(lines) &&
			isOp(l, opAddi, rSP, rSP, asm.Imm(-8)) &&
			isOp(&lines[i+1], opSd, rT0, mem0SP) &&
			isOp(&lines[i+2], opLd, anyArg, mem0SP) &&
			isOp(&lines[i+3], opAddi, rSP, rSP, asm.Imm(8)) {
			if dst := lines[i+2].Args[0]; dst != rT0 {
				out = append(out, I(asm.Mv, dst, rT0))
			}
			i += 3
			continue
		}
		// mv x, x and addi x, x, 0 are no-ops.
		if isOp(l, asm.Mv, anyArg, anyArg) && l.Args[0] == l.Args[1] {
			continue
		}
		if isOp(l, opAddi, anyArg, anyArg, asm.Imm(0)) && l.Args[0] == l.Args[1] {
			continue
		}
		out = append(out, *l)
	}
	return out
}
