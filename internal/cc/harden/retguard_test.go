package harden

import (
	"strings"
	"testing"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/kernel"
)

const retProg = `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func helper(f func(int) int, x int) int { return f(x); }
func main() int {
	print_int(fib(10));
	return helper(fib, 9) + 21; // 34 + 21 = 55
}
`

func TestRetGuardPreservesSemantics(t *testing.T) {
	img := buildHardened(t, retProg, RetGuard())
	res := runImage(t, kernel.FullSystem(), img)
	if !res.Exited {
		t.Fatalf("killed: %v (roload=%v va=%#x)", res.Signal, res.ROLoadViolation, res.FaultVA)
	}
	if res.Code != 55 {
		t.Fatalf("exit = %d, want 55", res.Code)
	}
	if string(res.Stdout) != "55\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	// Returns now execute ld.ro: every call/return pair adds one.
	if res.CPUStats.ROLoads == 0 {
		t.Fatal("no keyed return loads executed")
	}
}

func TestRetGuardComposesWithICall(t *testing.T) {
	img := buildHardened(t, retProg, ICall(), RetGuard())
	res := runImage(t, kernel.FullSystem(), img)
	if !res.Exited || res.Code != 55 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetGuardComposesWithVCall(t *testing.T) {
	img := buildHardened(t, vcallProg, VCall(), RetGuard())
	res := runImage(t, kernel.FullSystem(), img)
	if !res.Exited || res.Code != 24 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetGuardEmitsKeyedSites(t *testing.T) {
	unit, err := cc.Compile(retProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, RetGuard()); err != nil {
		t.Fatal(err)
	}
	if unit.RetGuard == nil || unit.RetGuard.Key != RetKey {
		t.Fatal("RetGuard info missing")
	}
	if unit.RetGuard.NumSite == 0 {
		t.Fatal("no return sites recorded")
	}
	text := unit.Assembly()
	if !strings.Contains(text, ".section .rodata.key.900") {
		t.Error("keyed return-site section missing")
	}
	if !strings.Contains(text, "ld.ro t6, (ra), 900") {
		t.Error("keyed return sequence missing")
	}
	// No raw "call" or "ret" may survive in user functions.
	for _, f := range unit.Funcs {
		for _, l := range f.Lines {
			if l.Op == asm.Call || l.Op == asm.Ret {
				t.Errorf("%s: unconverted %s", f.Name, l.Op)
			}
		}
	}
}

// The security property: a stack smash that overwrites saved return
// slots is stopped by the keyed return load.
func TestRetGuardBlocksStackSmash(t *testing.T) {
	victim := `
func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}
func vulnerable() int {
	attack_point();   // the "overflow" fires while this frame is live
	return 1;
}
func main() int {
	var r int = vulnerable();
	print_int(r);
	return 0;
}
`
	smash := func(p *kernel.Process) error {
		// Classic stack smash: sweep the stack and replace anything
		// that looks like a code or return-site pointer with evil().
		evil, _ := p.Sym("evil")
		top := uint64(0x7f000000)
		lo := top - 256<<10
		buf, err := p.PeekMem(lo, int(top-lo))
		if err != nil {
			return err
		}
		for off := 0; off+8 <= len(buf); off += 8 {
			var v uint64
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(buf[off+i])
			}
			if v >= 0x10000 && v < 0x100000 { // text/rodata range
				if err := p.CorruptUint(lo+uint64(off), evil, 8); err != nil {
					return err
				}
			}
		}
		return nil
	}

	run := func(passes ...Pass) kernel.RunResult {
		t.Helper()
		unit, err := cc.Compile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(unit, passes...); err != nil {
			t.Fatal(err)
		}
		img, err := asm.Assemble(unit.Assembly(), asm.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernel.FullSystem()
		cfg.MaxSteps = 10_000_000
		sys := kernel.NewSystem(cfg)
		p, err := sys.Spawn(img)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetAttackHook(func(proc *kernel.Process) error { return smash(proc) })
		res, err := sys.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run()
	if !strings.Contains(string(plain.Stdout), "PWNED") {
		t.Fatalf("unprotected stack smash did not hijack: signal=%v stdout=%q", plain.Signal, plain.Stdout)
	}
	guarded := run(RetGuard())
	if !guarded.ROLoadViolation {
		t.Fatalf("RetGuard did not stop the smash: %+v stdout=%q", guarded, guarded.Stdout)
	}
	if guarded.FaultWantKey != RetKey {
		t.Errorf("fault key = %d, want %d", guarded.FaultWantKey, RetKey)
	}
}
