package cc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"roload/internal/asm"
	"roload/internal/kernel"
)

// compileRun compiles MiniC, assembles, and runs it on the fully
// modified system, returning the result.
func compileRun(t *testing.T, src string) kernel.RunResult {
	t.Helper()
	return compileRunOn(t, kernel.FullSystem(), src)
}

// compileRunOn also checks, for the program as compiled and as
// optimized, that the unit's typed statements link to the image its
// assembly text assembles to.
func compileRunOn(t *testing.T, cfg kernel.Config, src string) kernel.RunResult {
	t.Helper()
	unit, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img := linkBothWays(t, unit)
	opt, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(opt)
	linkBothWays(t, opt)
	cfg.MaxSteps = 50_000_000
	sys := kernel.NewSystem(cfg)
	p, err := sys.Spawn(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// linkBothWays links u from its typed statements and from its assembly
// text, fails the test unless the images are identical, and returns
// the image.
func linkBothWays(t *testing.T, u *Unit) *asm.Image {
	t.Helper()
	text, err := asm.Assemble(u.Assembly(), asm.DefaultOptions())
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, u.Assembly())
	}
	typed, err := asm.AssembleLines(u.Lines, asm.DefaultOptions())
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if !reflect.DeepEqual(typed, text) {
		t.Fatalf("typed statements and assembly text link to different images\n%s", u.Assembly())
	}
	return typed
}

func wantExit(t *testing.T, res kernel.RunResult, code int) {
	t.Helper()
	if !res.Exited {
		t.Fatalf("killed by %v at %#x (roload=%v)", res.Signal, res.FaultVA, res.ROLoadViolation)
	}
	if res.Code != code {
		t.Fatalf("exit code = %d, want %d (stdout=%q)", res.Code, code, res.Stdout)
	}
}

func TestReturnConstant(t *testing.T) {
	res := compileRun(t, `func main() int { return 42; }`)
	wantExit(t, res, 42)
}

func TestArithmetic(t *testing.T) {
	res := compileRun(t, `
func main() int {
	var a int = 7;
	var b int = 3;
	return a*b + a/b - a%b + (a<<1) - (a>>1) + (a&b) + (a|b) + (a^b);
	// 21 + 2 - 1 + 14 - 3 + 3 + 7 + 4 = 47
}`)
	wantExit(t, res, 47)
}

func TestComparisonsAndLogic(t *testing.T) {
	res := compileRun(t, `
func main() int {
	var n int = 0;
	if (1 < 2) { n = n + 1; }
	if (2 <= 2) { n = n + 1; }
	if (3 > 2) { n = n + 1; }
	if (2 >= 3) { n = n + 100; }
	if (1 == 1 && 2 != 3) { n = n + 1; }
	if (0 || 5) { n = n + 1; }
	if (!0) { n = n + 1; }
	return n;
}`)
	wantExit(t, res, 6)
}

func TestLoops(t *testing.T) {
	res := compileRun(t, `
func main() int {
	var sum int = 0;
	for (var i int = 1; i <= 10; i++) {
		sum += i;
	}
	var j int = 0;
	while (j < 5) {
		j++;
		if (j == 3) { continue; }
		if (j == 5) { break; }
		sum += j;
	}
	return sum; // 55 + 1+2+4 = 62
}`)
	wantExit(t, res, 62)
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := compileRun(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() int { return fib(10); }`)
	wantExit(t, res, 55)
}

func TestGlobalsAndArrays(t *testing.T) {
	res := compileRun(t, `
var counter int = 5;
var table [8]int;
func main() int {
	counter += 2;
	for (var i int = 0; i < 8; i++) {
		table[i] = i * i;
	}
	return counter + table[7]; // 7 + 49
}`)
	wantExit(t, res, 56)
}

func TestPointers(t *testing.T) {
	res := compileRun(t, `
func set(p *int, v int) { *p = v; }
func main() int {
	var x int = 1;
	set(&x, 30);
	var p *int = &x;
	*p = *p + 12;
	return x;
}`)
	wantExit(t, res, 42)
}

func TestStructs(t *testing.T) {
	res := compileRun(t, `
struct Point { x int; y int; }
func main() int {
	var p Point;
	p.x = 11;
	p.y = 31;
	var q *Point = &p;
	q.x += 1;
	return q.x + p.y;
}`)
	wantExit(t, res, 43)
}

func TestHeapAllocation(t *testing.T) {
	res := compileRun(t, `
struct Node { val int; next *Node; }
func main() int {
	var head *Node = null;
	for (var i int = 1; i <= 5; i++) {
		var n *Node = new Node;
		n.val = i;
		n.next = head;
		head = n;
	}
	var sum int = 0;
	while (head != null) {
		sum += head.val;
		head = head.next;
	}
	return sum;
}`)
	wantExit(t, res, 15)
}

func TestNewArray(t *testing.T) {
	res := compileRun(t, `
func main() int {
	var a *int = new int[100];
	for (var i int = 0; i < 100; i++) { a[i] = i; }
	var s int = 0;
	for (var i int = 0; i < 100; i++) { s += a[i]; }
	return s % 251; // 4950 % 251 = 181
}`)
	wantExit(t, res, 181)
}

func TestVirtualDispatch(t *testing.T) {
	res := compileRun(t, `
class Shape {
	w int;
	h int;
	virtual area() int { return 0; }
	virtual scale() int { return 1; }
}
class Rect extends Shape {
	virtual area() int { return this.w * this.h; }
}
class Tri extends Rect {
	virtual area() int { return this.w * this.h / 2; }
	virtual scale() int { return 2; }
}
func measure(s *Shape) int { return s.area() * s.scale(); }
func main() int {
	var r *Rect = new Rect;
	r.w = 6; r.h = 7;
	var t *Tri = new Tri;
	t.w = 6; t.h = 8;
	var s *Shape = new Shape;
	return measure(r) + measure(t) + measure(s); // 42 + 48 + 0
}`)
	wantExit(t, res, 90)
}

func TestFunctionPointers(t *testing.T) {
	res := compileRun(t, `
func inc(x int) int { return x + 1; }
func dbl(x int) int { return x * 2; }
func apply(f func(int) int, x int) int { return f(x); }
func main() int {
	var f func(int) int = inc;
	var g func(int) int = dbl;
	var n int = apply(f, 10) + apply(g, 10); // 11 + 20
	f = dbl;
	n += f(5); // 10
	return n;
}`)
	wantExit(t, res, 41)
}

func TestFunctionPointerTable(t *testing.T) {
	res := compileRun(t, `
func add(a int, b int) int { return a + b; }
func sub(a int, b int) int { return a - b; }
func mul(a int, b int) int { return a * b; }
var ops [3]func(int, int) int;
func main() int {
	ops[0] = add;
	ops[1] = sub;
	ops[2] = mul;
	var n int = 0;
	for (var i int = 0; i < 3; i++) {
		n += ops[i](10, 3);
	}
	return n; // 13 + 7 + 30
}`)
	wantExit(t, res, 50)
}

func TestPrintBuiltins(t *testing.T) {
	res := compileRun(t, `
func main() int {
	print_int(123);
	print_int(0-45);
	print_str("done");
	return 0;
}`)
	wantExit(t, res, 0)
	if got := string(res.Stdout); got != "123\n-45\ndone" {
		t.Errorf("stdout = %q", got)
	}
}

func TestExitBuiltin(t *testing.T) {
	res := compileRun(t, `func main() int { exit(9); return 1; }`)
	wantExit(t, res, 9)
}

func TestSizeof(t *testing.T) {
	res := compileRun(t, `
struct Pair { a int; b int; }
class C { x int; virtual m() int { return 0; } }
func main() int {
	return sizeof(int) + sizeof(*int) + sizeof(Pair) + sizeof(C);
	// 8 + 8 + 16 + 16 (vptr + x)
}`)
	wantExit(t, res, 48)
}

func TestStringEscapes(t *testing.T) {
	res := compileRun(t, `
func main() int {
	print_str("a\tb\n");
	return 0;
}`)
	if got := string(res.Stdout); got != "a\tb\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no main", `func foo() int { return 1; }`},
		{"undefined var", `func main() int { return x; }`},
		{"undefined func", `func main() int { return foo(); }`},
		{"type mismatch assign", `func main() int { var p *int = 5; return 0; }`},
		{"wrong arg count", `func f(a int) int { return a; } func main() int { return f(1,2); }`},
		{"bad member", `struct S { a int; } func main() int { var s S; return s.b; }`},
		{"break outside loop", `func main() int { break; return 0; }`},
		{"call non-function", `func main() int { var x int; return x(); }`},
		{"redefine", `func f() int { return 1; } func f() int { return 2; } func main() int { return 0; }`},
		{"unknown type", `func main() int { var x Foo; return 0; }`},
		{"bad override", `class A { virtual m() int { return 1; } } class B extends A { virtual m(x int) int { return x; } } func main() int { return 0; }`},
		{"class extends unknown", `class B extends A { } func main() int { return 0; }`},
		{"deref int", `func main() int { var x int; return *x; }`},
		{"assign to rvalue", `func main() int { 5 = 6; return 0; }`},
		{"struct by value param", `struct S { a int; } func f(s S) int { return 0; } func main() int { return 0; }`},
		{"shadow builtin", `func print_int(x int) int { return x; } func main() int { return 0; }`},
		{"return value from void", `func f() { return 5; } func main() int { return 0; }`},
		{"missing return value", `func f() int { return; } func main() int { return 0; }`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func main() int { return 1 }`,                // missing ;
		`func main( int { return 1; }`,                // bad params
		`func main() int { if 1 {} }`,                 // missing parens
		`struct S { }`,                                // ok actually? empty struct allowed... keep
		`func main() int {`,                           // unterminated
		`var x = ;`,                                   // missing type
		`func main() int { var a [0]int; return 0; }`, // zero-size array
		`clazz X {}`,                                  // unknown decl
		`func main() int { return 1 ? 2 : 3; }`,       // no ternary
	}
	for i, src := range cases {
		if i == 3 {
			continue // empty struct is legal
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d parsed without error: %s", i, src)
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := Lex(`foo 123 0x1f "s\n" 'a' + <<= // comment
/* block
comment */ bar`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tk.String())
	}
	want := []string{`"foo"`, "123", "31", `"s\n"`, "97", `"+"`, `"<<="`, `"bar"`}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{"\"unterminated", "'unterminated", "@", "'ab'"}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

// An unclosed block comment is an error at the line that opens it,
// not the end of the source.
func TestUnterminatedComment(t *testing.T) {
	for _, c := range []struct {
		src  string
		line int
	}{
		{"func main() int { return 0; } /* x", 1},
		{"func main() int {\n\treturn 0;\n}\n/* x\n\ny", 4},
		{"/*/", 1},
		{"/*", 1},
	} {
		_, err := Compile(c.src)
		want := fmt.Sprintf("cc: line %d: unterminated comment", c.line)
		if err == nil || err.Error() != want {
			t.Errorf("Compile(%q) = %v, want %s", c.src, err, want)
		}
	}
	// A closed comment spanning lines keeps later line numbers right.
	_, err := Compile("/* a\nb */ func main() int { return x; }")
	if err == nil || !strings.HasPrefix(err.Error(), "cc: line 2:") {
		t.Errorf("error after a two-line comment = %v, want line 2", err)
	}
}

// Metadata plumbing: the compiler must tag the sensitive operations.
func TestSensitiveMetadata(t *testing.T) {
	unit, err := Compile(`
class A { virtual m() int { return 1; } }
func f(x int) int { return x; }
func main() int {
	var a *A = new A;
	var g func(int) int = f;
	return a.m() + g(2);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n := unit.CountMeta(MetaVTableLoad); n != 1 {
		t.Errorf("vtable loads tagged = %d, want 1", n)
	}
	if n := unit.CountMeta(MetaVCallJump); n != 1 {
		t.Errorf("vcall jumps tagged = %d, want 1", n)
	}
	if n := unit.CountMeta(MetaICallJump); n != 1 {
		t.Errorf("icall jumps tagged = %d, want 1", n)
	}
	if n := unit.CountMeta(MetaFPtrMaterialize); n != 1 {
		t.Errorf("fptr materializations tagged = %d, want 1", n)
	}
	// Address-taken set must include f and the virtual method.
	if _, ok := unit.Checked.AddressTaken["f"]; !ok {
		t.Error("f not marked address-taken")
	}
	if _, ok := unit.Checked.AddressTaken["A$m"]; !ok {
		t.Error("A$m not marked address-taken")
	}
}

// The unhardened binary must also run on the baseline system —
// backward compatibility before any instrumentation.
func TestUnhardenedRunsOnBaseline(t *testing.T) {
	src := `
class A { virtual m() int { return 21; } }
func main() int {
	var a *A = new A;
	return a.m() * 2;
}`
	res := compileRunOn(t, kernel.BaselineSystem(), src)
	wantExit(t, res, 42)
}

func TestVTableInRodataByDefault(t *testing.T) {
	unit, err := Compile(`
class A { virtual m() int { return 1; } }
func main() int { var a *A = new A; return a.m(); }`)
	if err != nil {
		t.Fatal(err)
	}
	asmText := unit.Assembly()
	if !strings.Contains(asmText, "__vt_A") {
		t.Fatal("vtable symbol missing")
	}
	// Must be in plain .rodata (between __ro_start and keyed sections).
	img, err := asm.Assemble(asmText, asm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vt := img.Symbols["__vt_A"]
	ro, ok := img.FindSection(".rodata")
	if !ok || vt < ro.VA || vt >= ro.VA+ro.Size {
		t.Errorf("__vt_A at %#x not inside .rodata", vt)
	}
}

func TestMethodsCallingMethods(t *testing.T) {
	res := compileRun(t, `
class Counter {
	n int;
	virtual bump() int { this.n = this.n + 1; return this.n; }
	virtual bump2() int { return this.bump() + this.bump(); }
}
func main() int {
	var c *Counter = new Counter;
	return c.bump2(); // 1 + 2
}`)
	wantExit(t, res, 3)
}

func TestInheritedFields(t *testing.T) {
	res := compileRun(t, `
class Base { a int; virtual get() int { return this.a; } }
class Mid extends Base { b int; virtual get() int { return this.a + this.b; } }
class Leaf extends Mid { c int; virtual get() int { return this.a + this.b + this.c; } }
func main() int {
	var l *Leaf = new Leaf;
	l.a = 1; l.b = 2; l.c = 4;
	var b *Base = l;
	return b.get();
}`)
	wantExit(t, res, 7)
}

func BenchmarkCompileFib(b *testing.B) {
	src := `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() int { return fib(10); }`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}
