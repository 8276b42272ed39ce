// Type-based forward-edge CFI (paper Section IV-B): a plugin-style
// dispatcher with function pointers of two different types is attacked
// three ways, contrasting the classic label-based CFI baseline with the
// ROLoad-based ICall scheme:
//
//  1. redirecting a pointer to a never-called function's entry —
//     coarse CFI accepts it (every function carries the shared label),
//     ICall rejects it;
//  2. redirecting a pointer to an allowlist entry of the WRONG type —
//     ICall's per-type keys reject it;
//  3. redirecting a pointer to an allowlist entry of the SAME type —
//     the residual pointee-reuse surface the paper acknowledges.
//
// Run with: go run ./examples/icall-cfi
package main

import (
	"context"
	"fmt"
	"log"

	"roload/internal/attack"
	"roload/internal/core"
)

func main() {
	cases := []struct {
		title    string
		scenario *attack.Scenario
	}{
		{"1. function-entry reuse (the coarse-CFI bypass)", attack.FptrToFunctionEntry()},
		{"2. wrong-type allowlist reuse", attack.WrongTypeReuse()},
		{"3. same-type allowlist reuse (residual surface)", attack.PointeeReuse()},
	}
	schemes := []core.Hardening{core.HardenNone, core.HardenCFI, core.HardenICall}

	for _, c := range cases {
		fmt.Println(c.title)
		for _, h := range schemes {
			res, err := c.scenario.MountContext(context.Background(), h)
			if err != nil {
				log.Fatal(err)
			}
			name := "none"
			if h != core.HardenNone {
				name = h.String()
			}
			fmt.Printf("   %-6s -> %v\n", name, res.Outcome)
		}
		fmt.Println()
	}

	fmt.Println("interpretation:")
	fmt.Println(" - coarse CFI lets attackers call ANY function entry; ICall only")
	fmt.Println("   allows pointees from the keyed read-only table of the right type.")
	fmt.Println(" - the same-type reuse survives: like DEP/BTI/CET, ROLoad narrows")
	fmt.Println("   the target set rather than eliminating it (Section V-D).")
}
