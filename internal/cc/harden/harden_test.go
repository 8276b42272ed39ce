package harden

import (
	"strings"
	"testing"

	"roload/internal/asm"
	"roload/internal/cc"
	"roload/internal/kernel"
)

// vcallProg exercises virtual dispatch across a hierarchy.
const vcallProg = `
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
func total(shapes **Shape, n int) int {
	var sum int = 0;
	for (var i int = 0; i < n; i++) {
		var s *Shape = shapes[i];
		sum += s.area();
	}
	return sum;
}
func main() int {
	var arr *int = new int[3];
	var ss **Shape = arr;
	var r *Rect = new Rect; r.w = 3; r.h = 4;
	var c *Circle = new Circle; c.w = 2;
	var s *Shape = new Shape;
	ss[0] = r; ss[1] = c; ss[2] = s;
	return total(ss, 3); // 12 + 12 + 0 = 24
}
`

// icallProg exercises function pointers of two signatures.
const icallProg = `
func inc(x int) int { return x + 1; }
func dbl(x int) int { return x * 2; }
func sum2(a int, b int) int { return a + b; }
var unary [2]func(int) int;
var binary func(int, int) int;
func main() int {
	unary[0] = inc;
	unary[1] = dbl;
	binary = sum2;
	var n int = 0;
	for (var i int = 0; i < 2; i++) { n += unary[i](10); }
	return n + binary(n, 9); // 11+20=31; 31+31+9 = 71
}
`

func buildHardened(t *testing.T, src string, passes ...Pass) *asm.Image {
	t.Helper()
	unit, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, passes...); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(unit.Assembly(), asm.DefaultOptions())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func runImage(t *testing.T, cfg kernel.Config, img *asm.Image) kernel.RunResult {
	t.Helper()
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

// Every pass must preserve program semantics on the full system.
func TestPassesPreserveSemantics(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		want   int
		passes []Pass
	}{
		{"vcall/none", vcallProg, 24, nil},
		{"vcall/VCall", vcallProg, 24, []Pass{VCall()}},
		{"vcall/VTint", vcallProg, 24, []Pass{VTint()}},
		{"vcall/ICall", vcallProg, 24, []Pass{ICall()}},
		{"vcall/CFI", vcallProg, 24, []Pass{ClassicCFI()}},
		{"icall/none", icallProg, 71, nil},
		{"icall/ICall", icallProg, 71, []Pass{ICall()}},
		{"icall/CFI", icallProg, 71, []Pass{ClassicCFI()}},
		{"icall/VCall", icallProg, 71, []Pass{VCall()}},
		{"icall/VTint", icallProg, 71, []Pass{VTint()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := buildHardened(t, c.src, c.passes...)
			res := runImage(t, kernel.FullSystem(), img)
			if !res.Exited {
				t.Fatalf("killed: %v (roload=%v va=%#x want=%d got=%d)",
					res.Signal, res.ROLoadViolation, res.FaultVA, res.FaultWantKey, res.FaultGotKey)
			}
			if res.Code != c.want {
				t.Fatalf("exit = %d, want %d", res.Code, c.want)
			}
		})
	}
}

func TestVCallMovesVTablesToKeyedSections(t *testing.T) {
	unit, err := cc.Compile(vcallProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, VCall()); err != nil {
		t.Fatal(err)
	}
	// All three classes share one hierarchy -> one key.
	var keys []uint16
	for _, vt := range unit.VTables {
		if vt.Key == 0 {
			t.Errorf("vtable %s not moved to a keyed section", vt.Symbol)
		}
		keys = append(keys, vt.Key)
	}
	for _, k := range keys {
		if k != keys[0] {
			t.Errorf("hierarchy keys differ: %v", keys)
		}
	}
	asmText := unit.Assembly()
	if !strings.Contains(asmText, "ld.ro") {
		t.Error("no ld.ro emitted")
	}
	if !strings.Contains(asmText, ".section .rodata.key.") {
		t.Error("no keyed section emitted")
	}
}

func TestVCallSeparateHierarchiesGetSeparateKeys(t *testing.T) {
	src := `
class A { virtual m() int { return 1; } }
class B { virtual m() int { return 2; } }
func main() int {
	var a *A = new A;
	var b *B = new B;
	return a.m() + b.m();
}
`
	unit, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, VCall()); err != nil {
		t.Fatal(err)
	}
	if len(unit.VTables) != 2 || unit.VTables[0].Key == unit.VTables[1].Key {
		t.Errorf("vtables = %+v", unit.VTables)
	}
	img, err := asm.Assemble(unit.Assembly(), asm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := runImage(t, kernel.FullSystem(), img)
	if !res.Exited || res.Code != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestICallBuildsGFPTs(t *testing.T) {
	unit, err := cc.Compile(icallProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, ICall()); err != nil {
		t.Fatal(err)
	}
	// inc and dbl share a signature; sum2 has its own.
	keys := SigKeys(unit)
	if len(keys) != 2 {
		t.Fatalf("signature keys = %v", keys)
	}
	if len(unit.GFPTs) != 3 {
		t.Fatalf("gfpt entries = %+v", unit.GFPTs)
	}
	byTarget := map[string]cc.GFPTEntry{}
	for _, g := range unit.GFPTs {
		byTarget[g.Target] = g
	}
	if byTarget["inc"].Key != byTarget["dbl"].Key {
		t.Error("inc and dbl must share a type key")
	}
	if byTarget["inc"].Key == byTarget["sum2"].Key {
		t.Error("sum2 must have a different type key")
	}
}

func TestICallRedirectsMaterializations(t *testing.T) {
	unit, err := cc.Compile(icallProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, ICall()); err != nil {
		t.Fatal(err)
	}
	asmText := unit.Assembly()
	if !strings.Contains(asmText, "__gfpt_inc") {
		t.Error("fptr materialization not redirected to GFPT")
	}
	// Original direct materializations of address-taken functions must
	// be gone from instruction operands ("la tX, inc").
	for _, f := range unit.Funcs {
		for _, l := range f.Lines {
			if l.Op == asm.La && l.N == 2 && l.Args[1] == asm.Sym("inc") {
				t.Error("raw la of address-taken function survived the pass")
			}
		}
	}
}

func TestVTintInsertsRangeChecks(t *testing.T) {
	base, err := cc.Compile(vcallProg)
	if err != nil {
		t.Fatal(err)
	}
	baseLines := countInsts(base)

	hardened, err := cc.Compile(vcallProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(hardened, VTint()); err != nil {
		t.Fatal(err)
	}
	gotLines := countInsts(hardened)
	vcalls := base.CountMeta(cc.MetaVTableLoad)
	if vcalls == 0 {
		t.Fatal("no vcalls in test program")
	}
	// 4 extra lines (la, bltu, la, bgeu) per vcall + 1 fail handler.
	want := baseLines + 4*vcalls + 1
	if gotLines != want {
		t.Errorf("instrumented lines = %d, want %d", gotLines, want)
	}
	if _, ok := hardened.FindFunc("__vtint_fail"); !ok {
		t.Error("fail handler missing")
	}
}

func TestClassicCFIInstrumentsCalls(t *testing.T) {
	unit, err := cc.Compile(icallProg)
	if err != nil {
		t.Fatal(err)
	}
	nFuncs := len(unit.Funcs)
	icalls := unit.CountMeta(cc.MetaICallJump)
	vcalls := unit.CountMeta(cc.MetaVCallJump)
	baseLines := countInsts(unit)
	if err := Apply(unit, ClassicCFI()); err != nil {
		t.Fatal(err)
	}
	// ID per function + 3 lines per indirect transfer + fail handler.
	want := baseLines + nFuncs + 3*(icalls+vcalls) + 1
	if got := countInsts(unit); got != want {
		t.Errorf("lines = %d, want %d", got, want)
	}
}

func countInsts(u *cc.Unit) int {
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

// Hardened binaries must fail on systems without full ROLoad support,
// in the documented ways.
func TestHardenedBinarySystemMatrix(t *testing.T) {
	img := buildHardened(t, vcallProg, VCall())

	res := runImage(t, kernel.BaselineSystem(), img)
	if res.Signal != kernel.SIGILL {
		t.Errorf("baseline system: %+v, want SIGILL", res)
	}

	res = runImage(t, kernel.ProcessorOnlySystem(), img)
	if res.Signal != kernel.SIGSEGV {
		t.Errorf("processor-only system: %+v, want SIGSEGV", res)
	}

	res = runImage(t, kernel.FullSystem(), img)
	if !res.Exited || res.Code != 24 {
		t.Errorf("full system: %+v, want exit 24", res)
	}
}

// The instrumentation cost ordering that drives the paper's Figures 3
// and 4 must hold per call: ld.ro replaces the existing ld (±1 addi),
// while VTint adds 4 instructions and CFI adds 3 per transfer.
func TestInstrumentationCostOrdering(t *testing.T) {
	run := func(passes ...Pass) uint64 {
		img := buildHardened(t, vcallProg, passes...)
		return runImage(t, kernel.FullSystem(), img).Instret
	}
	base := run()
	vcall := run(VCall())
	vtint := run(VTint())
	if vcall >= vtint {
		t.Errorf("VCall instret %d must be < VTint %d", vcall, vtint)
	}
	if vcall < base {
		t.Errorf("VCall instret %d below baseline %d", vcall, base)
	}

	icallImg := buildHardened(t, icallProg, ICall())
	cfiImg := buildHardened(t, icallProg, ClassicCFI())
	icall := runImage(t, kernel.FullSystem(), icallImg).Instret
	cfi := runImage(t, kernel.FullSystem(), cfiImg).Instret
	if icall >= cfi {
		t.Errorf("ICall instret %d must be < CFI %d", icall, cfi)
	}
}

func TestApplyRecordsPassNames(t *testing.T) {
	unit, err := cc.Compile(icallProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(unit, ICall(), ClassicCFI()); err != nil {
		t.Fatal(err)
	}
	if len(unit.HardenedBy) != 2 || unit.HardenedBy[0] != "ICall" || unit.HardenedBy[1] != "ClassicCFI" {
		t.Errorf("HardenedBy = %v", unit.HardenedBy)
	}
}

func TestGFPTSymbolMangling(t *testing.T) {
	if GFPTSymbol("A$m") != "__gfpt_A_m" {
		t.Errorf("GFPTSymbol(A$m) = %s", GFPTSymbol("A$m"))
	}
	if GFPTSymbol("plain") != "__gfpt_plain" {
		t.Errorf("GFPTSymbol(plain) = %s", GFPTSymbol("plain"))
	}
}

func BenchmarkVCallPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unit, err := cc.Compile(vcallProg)
		if err != nil {
			b.Fatal(err)
		}
		if err := Apply(unit, VCall()); err != nil {
			b.Fatal(err)
		}
	}
}
