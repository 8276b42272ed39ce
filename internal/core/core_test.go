package core

import (
	"context"
	"testing"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/kernel"
)

const prog = `
class A { virtual m() int { return 21; } }
func f(x int) int { return x + 1; }
func main() int {
	var a *A = new A;
	var g func(int) int = f;
	return a.m() + g(20);
}
`

func TestBuildAndRunAllSchemes(t *testing.T) {
	for _, h := range []Hardening{HardenNone, HardenVCall, HardenVTint, HardenICall, HardenCFI} {
		img, unit, err := Build(prog, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if h != HardenNone && len(unit.HardenedBy) == 0 {
			t.Errorf("%v: pass not recorded", h)
		}
		res, _, err := RunWith(context.Background(), img, SysFull, RunOptions{MaxSteps: 10_000_000})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !res.Exited || res.Code != 42 {
			t.Errorf("%v: res = %+v", h, res)
		}
	}
}

func TestBuildErrorsPropagate(t *testing.T) {
	if _, _, err := Build("not minic", HardenNone); err == nil {
		t.Error("bad source accepted")
	}
}

func TestSystemKindConfig(t *testing.T) {
	cases := []struct {
		kind       SystemKind
		proc, kern bool
	}{
		{SysBaseline, false, false},
		{SysProcessorOnly, true, false},
		{SysFull, true, true},
	}
	for _, c := range cases {
		cfg := c.kind.Config()
		if cfg.ProcessorROLoad != c.proc || cfg.KernelROLoad != c.kern {
			t.Errorf("%v: cfg = %+v", c.kind, cfg)
		}
		if c.kind.String() == "" {
			t.Errorf("%v: empty name", int(c.kind))
		}
	}
}

func TestHardeningProperties(t *testing.T) {
	if !HardenVCall.NeedsROLoad() || !HardenICall.NeedsROLoad() {
		t.Error("ROLoad-based schemes must need the full system")
	}
	if HardenVTint.NeedsROLoad() || HardenCFI.NeedsROLoad() || HardenNone.NeedsROLoad() {
		t.Error("software schemes must not need ROLoad")
	}
	for _, h := range []Hardening{HardenNone, HardenVCall, HardenVTint, HardenICall, HardenCFI} {
		if h.String() == "" {
			t.Error("empty scheme name")
		}
	}
	if len(HardenNone.Passes()) != 0 {
		t.Error("HardenNone must have no passes")
	}
	if len(HardenVCall.Passes()) != 1 {
		t.Error("HardenVCall must have one pass")
	}
}

func TestMeasureAndOverhead(t *testing.T) {
	base, err := measure(prog, HardenNone)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(prog, HardenVTint)
	if err != nil {
		t.Fatal(err)
	}
	if base.ImageBytes == 0 || base.CodeBytes == 0 {
		t.Error("image sizes not recorded")
	}
	if m.CodeBytes <= base.CodeBytes {
		t.Error("VTint must grow the code section")
	}
	rt, _ := Overhead(base, m)
	if rt < 0 {
		t.Errorf("VTint runtime overhead = %.3f%%, want >= 0", rt)
	}
}

// Compressed (RVC) builds of hardened programs must execute
// identically: the c.ld.ro encoding carries the same key semantics.
func TestCompressedHardenedExecution(t *testing.T) {
	unit, err := cc.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := harden.Apply(unit, harden.ICall()); err != nil {
		t.Fatal(err)
	}
	opts := asm.DefaultOptions()
	opts.Compress = true
	img, err := asm.Assemble(unit.Assembly(), opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := asm.Assemble(unit.Assembly(), asm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if img.CodeSize() >= plain.CodeSize() {
		t.Errorf("compressed code %d >= plain %d", img.CodeSize(), plain.CodeSize())
	}
	res, _, err := RunWith(context.Background(), img, SysFull, RunOptions{MaxSteps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exited || res.Code != 42 {
		t.Fatalf("compressed hardened run: %+v", res)
	}
}

// The software-only schemes must run on completely stock hardware —
// deployability is their one advantage over ROLoad.
func TestSoftwareSchemesRunOnBaseline(t *testing.T) {
	for _, h := range []Hardening{HardenVTint, HardenCFI} {
		img, _, err := Build(prog, h)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := RunWith(context.Background(), img, SysBaseline, RunOptions{MaxSteps: 10_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exited || res.Code != 42 {
			t.Errorf("%v on baseline hardware: %+v", h, res)
		}
	}
}

// ROLoad-hardened binaries must NOT run on stock hardware (the
// incompatibility is inherent to any ISA extension).
func TestROLoadSchemesFailOnBaseline(t *testing.T) {
	for _, h := range []Hardening{HardenVCall, HardenICall} {
		img, _, err := Build(prog, h)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := RunWith(context.Background(), img, SysBaseline, RunOptions{MaxSteps: 10_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Signal != kernel.SIGILL {
			t.Errorf("%v on baseline hardware: %+v, want SIGILL", h, res)
		}
	}
}

// measure builds src with scheme h and runs it on the full system.
func measure(src string, h Hardening) (Measurement, error) {
	img, _, err := Build(src, h)
	if err != nil {
		return Measurement{}, err
	}
	return MeasureImage(context.Background(), img, h, SysFull, RunOptions{MaxSteps: 10_000_000})
}
