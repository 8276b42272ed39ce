// Quickstart: compile a MiniC program, harden it with the paper's
// type-based forward-edge CFI (ICall), run it on the simulated
// ROLoad-capable system, and watch a function-pointer corruption get
// stopped by the ld.ro pointee-integrity check.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"roload/internal/core"
	"roload/internal/kernel"
)

const program = `
func greet(x int) int {
	print_str("hello from the callback: ");
	print_int(x);
	return x;
}

var callback func(int) int;

func evil() int {
	print_str("!! control flow hijacked !!");
	exit(66);
	return 0;
}

func main() int {
	callback = greet;
	callback(42);      // benign indirect call
	attack_point();    // a memory-corruption "vulnerability" fires here
	callback(7);       // the sensitive operation under attack
	return 0;
}
`

func main() {
	// 1. Compile and harden. The compiler tags the sensitive loads with
	//    ROLoad-md-style metadata; the ICall pass moves the legal
	//    callback targets into a keyed read-only GFPT and rewrites the
	//    indirect call to fetch its target with ld.ro.
	img, unit, err := core.Build(program, core.HardenICall)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built hardened image: %d bytes, %d GFPT entries\n",
		img.TotalSize(), len(unit.GFPTs))

	// 2. Boot the processor-and-kernel-modified system and load the
	//    program. The kernel installs the section keys into the page
	//    tables during loading.
	sys := kernel.NewSystem(kernel.FullSystem())
	proc, err := sys.Spawn(img)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Arm the attack: when the program reaches attack_point(), the
	//    "vulnerability" overwrites the callback pointer with the raw
	//    address of evil().
	sys.SetAttackHook(func(p *kernel.Process) error {
		handlerVar, _ := p.Sym("g_callback")
		evilAddr, _ := p.Sym("evil")
		fmt.Printf("attacker: overwriting callback at %#x with evil() at %#x\n",
			handlerVar, evilAddr)
		return p.CorruptUint(handlerVar, evilAddr, 8)
	})

	// 4. Run. The first call succeeds; the corrupted one dies on the
	//    ld.ro check because evil()'s code address is not a pointee in
	//    any keyed read-only page.
	res, err := sys.Run(proc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %q\n", res.Stdout)
	if res.ROLoadViolation {
		fmt.Printf("verdict: attack BLOCKED by ROLoad (fault at %#x, want key %d, got key %d)\n",
			res.FaultVA, res.FaultWantKey, res.FaultGotKey)
	} else if res.Exited {
		fmt.Printf("verdict: program exited %d — the attack was not stopped!\n", res.Code)
	} else {
		fmt.Printf("verdict: killed by %v\n", res.Signal)
	}

	// 5. Contrast: the same binary and attack on the UNHARDENED build.
	plainImg, _, err := core.Build(program, core.HardenNone)
	if err != nil {
		log.Fatal(err)
	}
	sys2 := kernel.NewSystem(kernel.FullSystem())
	proc2, err := sys2.Spawn(plainImg)
	if err != nil {
		log.Fatal(err)
	}
	sys2.SetAttackHook(func(p *kernel.Process) error {
		handlerVar, _ := p.Sym("g_callback")
		evilAddr, _ := p.Sym("evil")
		return p.CorruptUint(handlerVar, evilAddr, 8)
	})
	res2, err := sys2.Run(proc2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unhardened contrast: output %q, exit %d — hijacked\n",
		res2.Stdout, res2.Code)
}
