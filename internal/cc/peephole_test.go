package cc

import (
	"testing"

	"roload/internal/asm"
	"roload/internal/kernel"
)

const peepProg = `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
class A { v int; virtual get() int { return this.v; } }
func main() int {
	var a *A = new A;
	a.v = fib(12);
	print_int(a.get());
	return a.get() % 251; // 144
}
`

func instCount(u *Unit) int {
	n := 0
	for _, f := range u.Funcs {
		for _, l := range f.Lines {
			if l.Label == "" {
				n++
			}
		}
	}
	return n
}

func TestOptimizeShrinksAndPreserves(t *testing.T) {
	plain, err := Compile(peepProg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(peepProg)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(opt)
	if instCount(opt) >= instCount(plain) {
		t.Fatalf("optimizer did not shrink: %d vs %d", instCount(opt), instCount(plain))
	}

	run := func(u *Unit) kernel.RunResult {
		t.Helper()
		img, err := asm.Assemble(u.Assembly(), asm.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernel.FullSystem()
		cfg.MaxSteps = 50_000_000
		sys := kernel.NewSystem(cfg)
		p, err := sys.Spawn(img)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rp := run(plain)
	ro := run(opt)
	if !rp.Exited || !ro.Exited || rp.Code != ro.Code || string(rp.Stdout) != string(ro.Stdout) {
		t.Fatalf("behaviour changed: plain %+v vs opt %+v", rp, ro)
	}
	if ro.Cycles >= rp.Cycles {
		t.Errorf("optimized cycles %d >= plain %d", ro.Cycles, rp.Cycles)
	}
	if ro.Code != 144 {
		t.Errorf("exit = %d", ro.Code)
	}
}

// The optimizer must not touch metadata-tagged lines: the hardening
// passes still find their rewrite points afterwards.
func TestOptimizePreservesMetadata(t *testing.T) {
	u, err := Compile(peepProg)
	if err != nil {
		t.Fatal(err)
	}
	beforeVT := u.CountMeta(MetaVTableLoad)
	beforeVJ := u.CountMeta(MetaVCallJump)
	Optimize(u)
	if u.CountMeta(MetaVTableLoad) != beforeVT || u.CountMeta(MetaVCallJump) != beforeVJ {
		t.Error("optimizer dropped metadata")
	}
}

// Labels survive (branch targets stay valid even when the preceding
// window matched).
func TestOptimizeKeepsLabels(t *testing.T) {
	u := &Unit{Funcs: []*MFunc{{
		Name: "f",
		Lines: []Line{
			I(opAddi, rSP, rSP, asm.Imm(-8)),
			I(opSd, rT0, mem0SP),
			L(".Lx"), // label inside the window: must block the rewrite
			I(opLd, rA0, mem0SP),
			I(opAddi, rSP, rSP, asm.Imm(8)),
			I(asm.Ret),
		},
	}}}
	Optimize(u)
	found := false
	for _, l := range u.Funcs[0].Lines {
		if l.Label == ".Lx" {
			found = true
		}
	}
	if !found {
		t.Fatal("label removed")
	}
	if len(u.Funcs[0].Lines) != 6 {
		t.Errorf("window across a label was rewritten: %v", u.Funcs[0].Lines)
	}
}

func TestOptimizedHardenedStillProtected(t *testing.T) {
	// Build optimized + hardened and ensure the ld.ro path still works.
	u, err := Compile(peepProg)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(u)
	// Re-use the harden package indirectly via metadata rewrite being
	// intact: here we just verify the tagged lines still exist, the
	// harden tests cover the rest.
	if u.CountMeta(MetaVTableLoad) == 0 {
		t.Fatal("no vtable loads to protect after optimization")
	}
}
