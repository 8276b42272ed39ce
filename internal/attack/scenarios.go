package attack

import (
	"context"
	"fmt"

	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/core"
	"roload/internal/kernel"
)

// vtableVictim: a C++-style program whose object vptr the attacker
// hijacks (the classic VTable hijacking attack of Section IV-A). The
// attacker-controlled fake vtable lives in the writable .bss
// (attackerBuf); evil() is the payload.
const vtableVictim = `
class Greeter {
	who int;
	virtual greet() int { print_str("hello "); print_int(this.who); return this.who; }
}
class LoudGreeter extends Greeter {
	virtual greet() int { print_str("HELLO "); print_int(this.who); return this.who * 2; }
}

var victim *Greeter;
var attackerBuf [4]int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	var g *LoudGreeter = new LoudGreeter;
	g.who = 7;
	victim = g;
	victim.greet();        // benign vcall
	attack_point();        // vulnerability fires here
	return victim.greet(); // sensitive operation under attack
}
`

// VTableHijack overwrites the victim object's vptr with the address of
// a fake vtable built in writable memory.
func VTableHijack() *Scenario {
	return &Scenario{
		Name: "vtable-hijack",
		Description: "corrupt an object's vptr to point at a fake " +
			"vtable in writable memory whose slots hold the payload",
		Victim:  vtableVictim,
		Covered: []core.Hardening{core.HardenVCall, core.HardenVTint, core.HardenICall},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			objPtrAddr, err := sym(p, "g_victim")
			if err != nil {
				return err
			}
			obj, err := p.PeekUint(objPtrAddr, 8)
			if err != nil {
				return err
			}
			fake, err := sym(p, "g_attackerBuf")
			if err != nil {
				return err
			}
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			// Fill every fake slot with the payload address.
			for i := uint64(0); i < 4; i++ {
				if err := p.CorruptUint(fake+8*i, evil, 8); err != nil {
					return err
				}
			}
			// Overwrite the vptr (objects live in writable heap).
			return p.CorruptUint(obj, fake, 8)
		},
	}
}

// VTableDirectWrite tries to modify the vtable contents themselves —
// impossible under every scheme because compilers already place
// vtables in read-only memory; included to validate the corruption
// primitive's fidelity to the threat model.
func VTableDirectWrite() *Scenario {
	return &Scenario{
		Name:        "vtable-direct-write",
		Description: "attempt to overwrite a vtable slot in place",
		Victim:      vtableVictim,
		Covered:     MatrixSchemes, // page permissions stop it everywhere
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			vt, err := sym(p, "__vt_LoudGreeter")
			if err != nil {
				return err
			}
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			return p.CorruptUint(vt, evil, 8)
		},
	}
}

// fptrVictim: a callback-driven program whose global function pointer
// the attacker corrupts (the forward-edge attack of Section IV-B).
const fptrVictim = `
func double(x int) int { return x * 2; }
func square(x int) int { return x * x; }

var handler func(int) int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	handler = double;
	print_int(handler(21));   // benign icall
	attack_point();           // vulnerability fires here
	print_int(handler(6));    // sensitive operation under attack
	return 0;
}
`

// FptrToFunctionEntry overwrites the function pointer with the raw
// entry address of evil(). Coarse-grained CFI accepts this (evil
// carries the shared ID); ICall rejects it (evil's code address is not
// in any keyed read-only page).
func FptrToFunctionEntry() *Scenario {
	return &Scenario{
		Name: "fptr-to-function-entry",
		Description: "corrupt a function pointer to the raw entry of a " +
			"never-called function (defeats coarse CFI, not ICall)",
		Victim:  fptrVictim,
		Covered: []core.Hardening{core.HardenICall},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			h, err := sym(p, "g_handler")
			if err != nil {
				return err
			}
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			return p.CorruptUint(h, evil, 8)
		},
	}
}

// FptrToMidFunction overwrites the function pointer with an address in
// the middle of a function — no CFI ID there, so even the coarse
// baseline catches it; ICall also faults (not a keyed page).
func FptrToMidFunction() *Scenario {
	return &Scenario{
		Name:        "fptr-to-mid-function",
		Description: "corrupt a function pointer into a function body",
		Victim:      fptrVictim,
		Covered:     []core.Hardening{core.HardenICall, core.HardenCFI},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			h, err := sym(p, "g_handler")
			if err != nil {
				return err
			}
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			return p.CorruptUint(h, evil+12, 8)
		},
	}
}

// FptrToWritableTrampoline stores the payload address in writable
// memory and redirects the function pointer there. Under ICall the
// ld.ro faults because the trampoline page is writable and unkeyed —
// the pointee-integrity property in its purest form.
func FptrToWritableTrampoline() *Scenario {
	victim := `
func double(x int) int { return x * 2; }

var handler func(int) int;
var tramp [1]int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	handler = double;
	print_int(handler(21));
	attack_point();
	print_int(handler(6));
	return 0;
}
`
	return &Scenario{
		Name: "fptr-writable-trampoline",
		Description: "redirect a function pointer at an attacker-built " +
			"trampoline slot in writable memory (GFPT forgery)",
		Victim:  victim,
		Covered: []core.Hardening{core.HardenICall},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			h, err := sym(p, "g_handler")
			if err != nil {
				return err
			}
			tramp, err := sym(p, "g_tramp")
			if err != nil {
				return err
			}
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			if err := p.CorruptUint(tramp, evil, 8); err != nil {
				return err
			}
			return p.CorruptUint(h, tramp, 8)
		},
	}
}

// PointeeReuse is the residual attack the paper acknowledges in
// Section V-D: redirect the pointer at a *different* legitimate GFPT
// entry with the same type key. ROLoad permits it — the remaining
// attack surface is the allowlist itself.
func PointeeReuse() *Scenario {
	victim := `
func double(x int) int { return x * 2; }
func square(x int) int { return x * x; }

var handler func(int) int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	handler = double;
	var keep func(int) int = square; // square is address-taken too
	attack_point();
	print_int(handler(6));           // 12 normally; 36 if reused
	if (keep == handler) { print_str("same"); }
	return 0;
}
`
	return &Scenario{
		Name: "pointee-reuse",
		Description: "swing the pointer to another same-type allowlist " +
			"entry (the residual surface of Section V-D)",
		Victim:  victim,
		Covered: nil, // residual surface: no scheme stops it
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			h, err := sym(p, "g_handler")
			if err != nil {
				return err
			}
			// Under ICall the legitimate values are GFPT entries; the
			// attacker substitutes square's entry. Without hardening the
			// raw function address plays the same role.
			if hasGFPT(unit, "square") {
				entry, err := sym(p, GFPTEntryAddr("square"))
				if err != nil {
					return err
				}
				return p.CorruptUint(h, entry, 8)
			}
			sq, err := sym(p, "square")
			if err != nil {
				return err
			}
			return p.CorruptUint(h, sq, 8)
		},
	}
}

func hasGFPT(unit *cc.Unit, fn string) bool {
	for _, g := range unit.GFPTs {
		if g.Target == fn {
			return true
		}
	}
	return false
}

// GFPTEntryAddr returns the symbol name of a function's GFPT entry.
func GFPTEntryAddr(fn string) string { return harden.GFPTSymbol(fn) }

// WrongTypeReuse redirects the pointer at a GFPT entry of a different
// signature: the per-type key mismatch makes the ld.ro fault,
// demonstrating that ICall's policy really is type-based.
func WrongTypeReuse() *Scenario {
	victim := `
func double(x int) int { return x * 2; }
func pair(a int, b int) int { return a + b; }

var handler func(int) int;
var keep2 func(int, int) int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	handler = double;
	keep2 = pair;          // pair is address-taken, different type
	attack_point();
	print_int(handler(6));
	return 0;
}
`
	return &Scenario{
		Name: "wrong-type-reuse",
		Description: "swing the pointer at an allowlist entry of a " +
			"different function type (type key mismatch)",
		Victim:  victim,
		Covered: []core.Hardening{core.HardenICall},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			h, err := sym(p, "g_handler")
			if err != nil {
				return err
			}
			if hasGFPT(unit, "pair") {
				entry, err := sym(p, GFPTEntryAddr("pair"))
				if err != nil {
					return err
				}
				return p.CorruptUint(h, entry, 8)
			}
			pr, err := sym(p, "pair")
			if err != nil {
				return err
			}
			return p.CorruptUint(h, pr, 8)
		},
	}
}

// ReturnSmash is the classic backward-edge attack: a stack overflow
// replaces saved return slots with the payload address. It motivates
// the RetGuard extension (paper Section IV-C: "the allowlists are sets
// of legitimate return sites").
func ReturnSmash() *Scenario {
	victim := `
func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}
func vulnerable() int {
	attack_point();   // the overflow fires while this frame is live
	return 1;
}
func main() int {
	print_int(vulnerable());
	return 0;
}
`
	return &Scenario{
		Name: "return-smash",
		Description: "stack overflow overwriting saved return slots " +
			"(backward edge; stopped only by RetGuard)",
		Victim:  victim,
		Covered: []core.Hardening{core.HardenRetGuard},
		Corrupt: func(p *kernel.Process, unit *cc.Unit) error {
			evil, err := sym(p, "evil")
			if err != nil {
				return err
			}
			// Sweep the stack, replacing anything that looks like a
			// code or return-site pointer with the payload.
			const top, size = 0x7f000000, 256 << 10
			buf, err := p.PeekMem(top-size, size)
			if err != nil {
				return err
			}
			for off := 0; off+8 <= len(buf); off += 8 {
				var v uint64
				for i := 7; i >= 0; i-- {
					v = v<<8 | uint64(buf[off+i])
				}
				if v >= 0x10000 && v < 0x100000 {
					if err := p.CorruptUint(top-size+uint64(off), evil, 8); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// AllScenarios returns every attack in a stable order.
func AllScenarios() []*Scenario {
	return []*Scenario{
		VTableHijack(),
		VTableDirectWrite(),
		FptrToFunctionEntry(),
		FptrToMidFunction(),
		FptrToWritableTrampoline(),
		PointeeReuse(),
		WrongTypeReuse(),
		ReturnSmash(),
	}
}

// MatrixSchemes are the hardening schemes exercised by MatrixContext.
var MatrixSchemes = []core.Hardening{
	core.HardenNone, core.HardenVCall, core.HardenVTint,
	core.HardenICall, core.HardenCFI, core.HardenRetGuard,
}

// MatrixContext runs every scenario under every hardening scheme and
// returns the results in a stable order; cancellation aborts the sweep
// at the next scenario boundary or mid-run.
func MatrixContext(ctx context.Context) ([]Result, error) {
	var out []Result
	for _, sc := range AllScenarios() {
		for _, h := range MatrixSchemes {
			r, err := sc.MountContext(ctx, h)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", sc.Name, h, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
