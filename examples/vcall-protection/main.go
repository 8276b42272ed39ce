// VCall protection (paper Section IV-A): a C++-style shape renderer is
// attacked with classic VTable hijacking under three builds —
// unprotected, the VTint software baseline, and the paper's
// ROLoad-based VCall scheme — and the runtime cost of each defense is
// measured on the same workload.
//
// Run with: go run ./examples/vcall-protection
package main

import (
	"context"
	"fmt"
	"log"

	"roload/internal/attack"
	"roload/internal/cc"
	"roload/internal/core"
	"roload/internal/kernel"
)

const victim = `
class Shape {
	w int; h int;
	virtual area() int { return 0; }
	virtual name() int { return 0; }
}
class Rect extends Shape {
	virtual area() int { return this.w * this.h; }
	virtual name() int { return 1; }
}
class Circle extends Shape {
	virtual area() int { return 3 * this.w * this.w; }
	virtual name() int { return 2; }
}

var scene *int;      // array of *Shape
var count int = 0;
var attackerBuf [4]int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func render() int {
	var shapes **Shape = scene;
	var total int = 0;
	for (var i int = 0; i < count; i++) {
		total += shapes[i].area();    // the sensitive vcalls
	}
	return total;
}

func main() int {
	count = 64;
	scene = new int[count];
	var shapes **Shape = scene;
	for (var i int = 0; i < count; i++) {
		if (i % 2 == 0) {
			var r *Rect = new Rect;
			r.w = i + 1; r.h = 2;
			shapes[i] = r;
		} else {
			var c *Circle = new Circle;
			c.w = i;
			shapes[i] = c;
		}
	}
	print_int(render());   // benign pass over the scene
	attack_point();        // vptr corruption fires here
	print_int(render());   // attacked pass
	return 0;
}
`

// sceneScenario is the attack: overwrite the first object's vptr with
// a fake vtable built in the writable attackerBuf.
func sceneScenario() *attack.Scenario {
	return &attack.Scenario{
		Name:        "scene-vtable-hijack",
		Description: "hijack the first scene object's vptr",
		Victim:      victim,
		Corrupt: func(p *kernel.Process, _ *cc.Unit) error {
			sceneVar, ok := p.Sym("g_scene")
			if !ok {
				return fmt.Errorf("g_scene not found")
			}
			arr, err := p.PeekUint(sceneVar, 8)
			if err != nil {
				return err
			}
			obj, err := p.PeekUint(arr, 8) // shapes[0]
			if err != nil {
				return err
			}
			fake, _ := p.Sym("g_attackerBuf")
			evil, _ := p.Sym("evil")
			for i := uint64(0); i < 4; i++ {
				if err := p.CorruptUint(fake+8*i, evil, 8); err != nil {
					return err
				}
			}
			return p.CorruptUint(obj, fake, 8)
		},
	}
}

func main() {
	for _, h := range []core.Hardening{core.HardenNone, core.HardenVTint, core.HardenVCall} {
		res, err := mountSceneAttack(h)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s: %v\n", schemeName(h), res.Outcome)
		fmt.Printf("        %s\n", res.Detail)
	}

	fmt.Println("\nruntime cost of each defense on the benign workload:")
	base, err := measureBenign(core.HardenNone)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range []core.Hardening{core.HardenVTint, core.HardenVCall} {
		m, err := measureBenign(h)
		if err != nil {
			log.Fatal(err)
		}
		rt, _ := core.Overhead(base, m)
		fmt.Printf("  %-6s: %d cycles (%+.3f%% vs %d baseline), %d protected loads\n",
			schemeName(h), m.Result.Cycles, rt, base.Result.Cycles, m.Result.CPUStats.ROLoads)
	}
}

// victimBenign is the same renderer without the attack hook, used for
// the overhead comparison.
const victimBenign = `
class Shape {
	w int; h int;
	virtual area() int { return 0; }
}
class Rect extends Shape {
	virtual area() int { return this.w * this.h; }
}
class Circle extends Shape {
	virtual area() int { return 3 * this.w * this.w; }
}
var scene *int;
var count int = 0;
func main() int {
	count = 64;
	scene = new int[count];
	var shapes **Shape = scene;
	for (var i int = 0; i < count; i++) {
		if (i % 2 == 0) {
			var r *Rect = new Rect; r.w = i + 1; r.h = 2; shapes[i] = r;
		} else {
			var c *Circle = new Circle; c.w = i; shapes[i] = c;
		}
	}
	var total int = 0;
	for (var pass int = 0; pass < 200; pass++) {
		for (var i int = 0; i < count; i++) {
			total += shapes[i].area();
		}
	}
	print_int(total);
	return 0;
}
`

func mountSceneAttack(h core.Hardening) (attack.Result, error) {
	sc := sceneScenario()
	return sc.MountContext(context.Background(), h)
}

// measureBenign builds the benign renderer under h and measures it on
// the fully modified system.
func measureBenign(h core.Hardening) (core.Measurement, error) {
	img, _, err := core.Build(victimBenign, h)
	if err != nil {
		return core.Measurement{}, err
	}
	return core.MeasureImage(context.Background(), img, h, core.SysFull, core.RunOptions{})
}

func schemeName(h core.Hardening) string {
	if h == core.HardenNone {
		return "none"
	}
	return h.String()
}
