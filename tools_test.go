package roload_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"roload/internal/schema"
	"roload/internal/service"
)

// buildTools compiles the command-line tools once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"roload-cc", "roload-run", "roload-attack", "roload-serve", "roload-gateway", "roload-loadgen"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

const smokeProg = `
func compute(f func(int) int, x int) int { return f(x); }
func twice(x int) int { return 2 * x; }
func main() int {
	print_int(compute(twice, 21));
	return 0;
}
`

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	src := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(src, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}

	// roload-cc produces assembly containing the hardened load.
	out, err := exec.Command(filepath.Join(bin, "roload-cc"), "-harden", "icall", src).Output()
	if err != nil {
		t.Fatalf("roload-cc: %v", err)
	}
	if !strings.Contains(string(out), "ld.ro") || !strings.Contains(string(out), ".rodata.key.") {
		t.Error("roload-cc output missing hardening artifacts")
	}

	// roload-cc -dump disassembles.
	out, err = exec.Command(filepath.Join(bin, "roload-cc"), "-harden", "icall", "-dump", src).Output()
	if err != nil {
		t.Fatalf("roload-cc -dump: %v", err)
	}
	if !strings.Contains(string(out), "section .text") {
		t.Error("dump missing section header")
	}

	// roload-run executes on each system with the right outcomes.
	cases := []struct {
		args     []string
		exitCode int
		stdout   string
	}{
		{[]string{"-system", "full", "-harden", "icall", src}, 0, "42\n"},
		{[]string{"-system", "full", "-harden", "full", src}, 0, "42\n"},
		{[]string{"-system", "baseline", src}, 0, "42\n"},
		{[]string{"-system", "baseline", "-harden", "icall", src}, 128 + 4, ""}, // SIGILL
		{[]string{"-system", "proc", "-harden", "icall", src}, 128 + 11, ""},    // SIGSEGV
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(bin, "roload-run"), c.args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("roload-run %v: %v", c.args, err)
		}
		if code != c.exitCode {
			t.Errorf("roload-run %v: exit %d, want %d", c.args, code, c.exitCode)
		}
		if c.stdout != "" && stdout.String() != c.stdout {
			t.Errorf("roload-run %v: stdout %q, want %q", c.args, stdout.String(), c.stdout)
		}
	}

	// roload-attack runs one scenario and exits cleanly, printing the
	// ROLoad fault audit record for each blocked run.
	out, err = exec.Command(filepath.Join(bin, "roload-attack"), "-scenario", "vtable-hijack").Output()
	if err != nil {
		t.Fatalf("roload-attack: %v", err)
	}
	if !strings.Contains(string(out), "HIJACKED") ||
		!strings.Contains(string(out), "blocked by ROLoad check") {
		t.Errorf("roload-attack output:\n%s", out)
	}
	for _, frag := range []string{"ROLOAD-AUDIT", "pc=0x", "fault va=0x", "want key=", "got key="} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("roload-attack audit output missing %q:\n%s", frag, out)
		}
	}
}

// TestCLIObservability drives the roload-run observability flags
// end-to-end: the trace must be loadable Chrome trace-event JSON with
// MiniC function names, the profile must attribute cycles to those
// functions, and the metrics snapshot must parse against its schema.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	cmd := exec.Command(filepath.Join(bin, "roload-run"),
		"-harden", "icall",
		"-trace", tracePath,
		"-profile", "-",
		"-metrics", metricsPath,
		src)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		t.Fatalf("roload-run with observability flags: %v", err)
	}

	// Profile on stdout names the program's MiniC functions.
	profile := stdout.String()
	for _, fn := range []string{"cycles profile:", "main", "compute", "twice"} {
		if !strings.Contains(profile, fn) {
			t.Errorf("profile missing %q:\n%s", fn, profile)
		}
	}

	// Trace: valid Chrome trace-event JSON (traceEvents array, every
	// entry with name/ph/ts/pid/tid) naming the functions.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for i, ev := range trace.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event %d missing %q: %v", i, key, ev)
			}
		}
	}
	if !strings.Contains(string(raw), `"main"`) || !strings.Contains(string(raw), `"twice"`) {
		t.Error("trace missing symbolized function spans")
	}

	// Metrics: schema-tagged JSON with the unified counters.
	raw, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	if metrics["schema"] != "roload-metrics/v1" {
		t.Errorf("metrics schema = %v", metrics["schema"])
	}
	for _, key := range []string{"cycles", "instret", "cpu", "itlb", "dtlb", "icache", "dcache", "exited"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if metrics["exited"] != true {
		t.Error("metrics report non-exit for a clean run")
	}
}

// TestCLIBenchJSON runs the full benchmark harness at test scale via
// -json and checks the emitted document covers every experiment id.
func TestCLIBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	bench := filepath.Join(dir, "roload-bench")
	if msg, err := exec.Command("go", "build", "-o", bench, "./cmd/roload-bench").CombinedOutput(); err != nil {
		t.Fatalf("building roload-bench: %v\n%s", err, msg)
	}
	outPath := filepath.Join(dir, "bench.json")
	if msg, err := exec.Command(bench, "-json", outPath, "-scale", "test").CombinedOutput(); err != nil {
		t.Fatalf("roload-bench -json: %v\n%s", err, msg)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bench report is not valid JSON: %v", err)
	}
	if string(doc["schema"]) != `"roload-bench/v1"` {
		t.Errorf("schema = %s", doc["schema"])
	}
	for _, id := range []string{"table1", "table2", "table3", "sysoverhead",
		"fig3", "fig4", "fig5", "retguard", "security"} {
		v, ok := doc[id]
		if !ok || string(v) == "null" || string(v) == "[]" {
			t.Errorf("bench report missing experiment %q", id)
		}
	}
}

// TestCLIBenchFlagValidation covers the harness's flag contract: an
// unknown -only value must exit 2 with a message naming the known
// experiments (not silently run nothing), -json cannot be combined
// with -only, and a valid -only runs exactly that experiment.
func TestCLIBenchFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bench := filepath.Join(dir, "roload-bench")
	if msg, err := exec.Command("go", "build", "-o", bench, "./cmd/roload-bench").CombinedOutput(); err != nil {
		t.Fatalf("building roload-bench: %v\n%s", err, msg)
	}
	cases := []struct {
		args     []string
		exitCode int
		stderr   string
		stdout   string
	}{
		{[]string{"-only", "nosuch"}, 2, "unknown experiment", ""},
		{[]string{"-only", "nosuch", "-scale", "test"}, 2, "known: table1", ""},
		{[]string{"-json", "-", "-only", "fig3"}, 2, "cannot be combined", ""},
		{[]string{"-scale", "nope"}, 2, "unknown scale", ""},
		{[]string{"-scale", "test", "-only", "table2"}, 0, "", "Prototype system configuration"},
	}
	for _, c := range cases {
		cmd := exec.Command(bench, c.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("roload-bench %v: %v", c.args, err)
		}
		if code != c.exitCode {
			t.Errorf("roload-bench %v: exit %d, want %d (stderr: %s)", c.args, code, c.exitCode, stderr.String())
		}
		if c.stderr != "" && !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("roload-bench %v: stderr %q missing %q", c.args, stderr.String(), c.stderr)
		}
		if c.stdout != "" && !strings.Contains(stdout.String(), c.stdout) {
			t.Errorf("roload-bench %v: stdout missing %q:\n%s", c.args, c.stdout, stdout.String())
		}
	}
}

// TestParallelRunnerRace re-runs the eval Runner's tests (worker pool,
// shared image cache, measurement memo) under the race detector: the
// concurrent evaluation engine must be provably race-clean, not just
// quiet on one schedule. Skips gracefully where -race is unsupported
// (no cgo / unsupported platform).
func TestParallelRunnerRace(t *testing.T) {
	raceTest(t, "-run", "TestRunner", "roload/internal/eval")
}

// raceTest runs go test -race -count=1 with args (flags, then the
// package), failing t on a test failure and skipping it where the race
// detector is unavailable (no cgo / unsupported platform).
func raceTest(t *testing.T, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns toolchain")
	}
	cmd := exec.Command("go", append([]string{"test", "-race", "-count=1"}, args...)...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		s := string(out)
		if strings.Contains(s, "-race is only supported on") ||
			strings.Contains(s, "-race requires cgo") ||
			strings.Contains(s, "cgo is disabled") ||
			strings.Contains(s, "C compiler") {
			t.Skipf("race detector unavailable here:\n%s", s)
		}
		t.Fatalf("go test -race %v: %v\n%s", args, err, s)
	}
}

// TestRetainRace re-runs the retain tests (FIFO, single-flight memo,
// idempotency middleware) under the race detector: the eval Runner's
// caches, the service's experiment cache and both tiers' idempotency
// layers all rest on that package's concurrency.
func TestRetainRace(t *testing.T) {
	raceTest(t, "roload/internal/retain")
}

// TestHTTPAPIRace re-runs the shared request-middleware tests under
// the race detector: every request of both tiers crosses its counters,
// latency histograms and run-id slot.
func TestHTTPAPIRace(t *testing.T) {
	raceTest(t, "roload/internal/httpapi")
}

// TestGofmtAndVet keeps the tree formatted and vet-clean: gofmt -l
// must print nothing and go vet must pass across every package.
func TestGofmtAndVet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns toolchain")
	}
	out, err := exec.Command("gofmt", "-l", ".").Output()
	if err != nil {
		t.Fatalf("gofmt -l: %v", err)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("files need gofmt:\n%s", files)
	}
	if msg, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, msg)
	}
}

// TestPerfModuleBuilds compiles the benchmark harness and runs its
// short tests. internal/perf and cmd/roload-perf are nested modules,
// so go build ./... and go test ./... never reach them; a change to
// the tiers they drive must still keep them building and their own
// tests green. Both modules resolve roload from this checkout, so the
// build needs no network.
func TestPerfModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns toolchain")
	}
	env := append(os.Environ(), "GOPROXY=off", "GOWORK=off")
	for _, args := range [][]string{
		{"-C", "internal/perf", "vet", "./..."},
		{"-C", "internal/perf", "test", "-short", "-count=1", "./..."},
		{"-C", "cmd/roload-perf", "build", "-o", filepath.Join(t.TempDir(), "roload-perf"), "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = env
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
		}
	}
}

// TestMicroBenchmarksRun runs every micro-benchmark of the compiler,
// the assembler, the simulator's hot packages and the served build and
// execution paths once. go test ./... compiles
// benchmarks but never executes their bodies, so a benchmark whose
// setup breaks would otherwise go unnoticed until someone measures.
func TestMicroBenchmarksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns toolchain")
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchtime", "1x",
		"./internal/asm", "./internal/isa", "./internal/cpu", "./internal/cache", "./internal/mmu", "./internal/core",
		"./internal/cc")
	cmd.Env = os.Environ()
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go test -bench: %v\n%s", err, msg)
	}
	for _, want := range []string{"BenchmarkAssembleSpec", "BenchmarkRegByName", "BenchmarkRunWithLiveContext",
		"BenchmarkBuild", "BenchmarkCompile"} {
		if !strings.Contains(string(msg), want) {
			t.Errorf("benchmark %s did not run:\n%s", want, msg)
		}
	}
}

// TestCLIFlagSpelling pins the shared internal/cli flag contract
// across the tools: -sys is an alias of -system, and every unknown
// -system/-sys/-harden value exits 2 naming the known values.
func TestCLIFlagSpelling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	src := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(src, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}

	// The -sys alias drives the same value as -system.
	out, err := exec.Command(filepath.Join(bin, "roload-run"), "-sys", "baseline", src).Output()
	if err != nil {
		t.Fatalf("roload-run -sys baseline: %v", err)
	}
	if string(out) != "42\n" {
		t.Errorf("-sys alias run stdout = %q", out)
	}

	sysKnown := "known: baseline, proc, full"
	hardenKnown := "known: none, vcall, vtint, icall, cfi, retguard, full"
	cases := []struct {
		tool   string
		args   []string
		stderr string
	}{
		{"roload-run", []string{"-system", "mainframe", src}, sysKnown},
		{"roload-run", []string{"-sys", "mainframe", src}, sysKnown},
		{"roload-run", []string{"-harden", "aslr", src}, hardenKnown},
		{"roload-cc", []string{"-harden", "aslr", src}, hardenKnown},
		{"roload-attack", []string{"-harden", "aslr"}, hardenKnown},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(bin, c.tool), c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("%s %v: err = %v, want exit error", c.tool, c.args, err)
			continue
		}
		if ee.ExitCode() != 2 {
			t.Errorf("%s %v: exit %d, want 2", c.tool, c.args, ee.ExitCode())
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s %v: stderr %q missing %q", c.tool, c.args, stderr.String(), c.stderr)
		}
	}
}

// TestServiceMatchesCLI is the byte-identity contract of the HTTP
// service: for the same inputs, /v1/run carries exactly the stdout,
// exit status and metrics document the roload-run CLI produces,
// /v1/compile exactly roload-cc's stdout, and /v1/attack exactly
// roload-attack's stdout.
func TestServiceMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := service.NewServer(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()

	call := func(url string, body, out any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, msg)
		}
		var env schema.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if err := env.Open(schema.ServeV1, out); err != nil {
			t.Fatal(err)
		}
	}

	// Run: stdout, exit status and the metrics document must match.
	metricsPath := filepath.Join(dir, "metrics.json")
	cmd := exec.Command(filepath.Join(bin, "roload-run"),
		"-system", "full", "-harden", "icall", "-metrics", metricsPath, src)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		t.Fatalf("roload-run: %v", err)
	}
	var run schema.RunResponse
	call(ts.URL+"/v1/run", schema.RunRequest{Source: smokeProg, System: "full", Harden: "icall"}, &run)
	if run.Stdout != stdout.String() {
		t.Errorf("run stdout %q != CLI stdout %q", run.Stdout, stdout.String())
	}
	if run.ExitStatus != 0 || !run.Exited {
		t.Errorf("run = %+v, CLI exited 0", run)
	}
	cliMetrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), cliMetrics) {
		t.Errorf("metrics documents differ:\nservice: %s\nCLI:     %s", buf.Bytes(), cliMetrics)
	}

	// A signalled run maps to the same 128+signal exit status the CLI
	// process exits with.
	cmd = exec.Command(filepath.Join(bin, "roload-run"), "-system", "proc", "-harden", "icall", src)
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("roload-run proc/icall: err = %v, want exit error", err)
	}
	var sig schema.RunResponse
	call(ts.URL+"/v1/run", schema.RunRequest{Source: smokeProg, System: "proc", Harden: "icall"}, &sig)
	if sig.Exited || sig.ExitStatus != ee.ExitCode() {
		t.Errorf("service exit status %d (exited=%v) != CLI exit %d", sig.ExitStatus, sig.Exited, ee.ExitCode())
	}

	// Compile: byte-identical assembly.
	ccOut, err := exec.Command(filepath.Join(bin, "roload-cc"), "-harden", "icall", src).Output()
	if err != nil {
		t.Fatalf("roload-cc: %v", err)
	}
	var comp schema.CompileResponse
	call(ts.URL+"/v1/compile", schema.CompileRequest{Source: smokeProg, Harden: "icall"}, &comp)
	if comp.Text != string(ccOut) {
		t.Errorf("compile text diverged from roload-cc stdout (%d vs %d bytes)", len(comp.Text), len(ccOut))
	}

	// Attack: byte-identical matrix rendering for the same selection.
	atOut, err := exec.Command(filepath.Join(bin, "roload-attack"), "-scenario", "vtable-hijack").Output()
	if err != nil {
		t.Fatalf("roload-attack: %v", err)
	}
	var at schema.AttackResponse
	call(ts.URL+"/v1/attack", schema.AttackRequest{Scenario: "vtable-hijack"}, &at)
	if at.Text != string(atOut) {
		t.Errorf("attack text diverged from roload-attack stdout:\nservice:\n%s\nCLI:\n%s", at.Text, atOut)
	}
	if at.BadDefense {
		t.Error("matrix flagged a bad defense")
	}
}

// TestServiceRace re-runs the HTTP service tests (worker pool, shared
// caches, drain, concurrent clients) under the race detector, like
// TestParallelRunnerRace does for the eval runner.
func TestServiceRace(t *testing.T) {
	raceTest(t, "-run", "TestServe", "roload/internal/service")
}

// TestChaosMatrixRace re-runs the pointee-integrity chaos matrix under
// the race detector: the fault engine mutates MMU, cache and memory
// state from injection hooks while the core executes, and that
// interleaving must be provably race-clean. Skips gracefully where
// -race is unsupported.
func TestChaosMatrixRace(t *testing.T) {
	raceTest(t, "-run", "TestChaosMatrix", "roload/internal/fault")
}

// TestClientRace re-runs the resilient-client tests (retries and
// backoff, hedged requests, concurrent exactly-once delivery) under
// the race detector, like TestServiceRace does for the HTTP service.
func TestClientRace(t *testing.T) {
	raceTest(t, "roload/internal/client")
}

// TestEngineDifferentialRace re-runs the cross-engine differential
// tests — the workload × hardening × system equivalence matrix (short
// slab) and the seeded chaos-matrix cell — under the race detector.
// The block engine shares translated blocks, page refs and chain links
// with the predecode machinery; this proves the three-engine
// differential itself is race-clean, not just quiet on one schedule.
func TestEngineDifferentialRace(t *testing.T) {
	// -short trims the equivalence matrix to one workload's full
	// hardening × system slab: every engine code path (clean exit,
	// SIGILL, SIGSEGV) stays in play at race-detector speed.
	raceTest(t, "-short", "-run", "TestFastPathEquivalence", "roload/internal/eval")
	raceTest(t, "-run", "TestEngineDifferentialChaosCell", "roload/internal/fault")
}

// TestCLIBenchCheck drives the perf-regression gate end to end:
// -check without -history is a usage error, a history whose last
// same-scale entry carries inflated MIPS makes the run exit 1 naming
// the regressed engine (while still appending the measurement to the
// trajectory), and a re-run against the now-honest history passes.
func TestCLIBenchCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bench := filepath.Join(dir, "roload-bench")
	if msg, err := exec.Command("go", "build", "-o", bench, "./cmd/roload-bench").CombinedOutput(); err != nil {
		t.Fatalf("building roload-bench: %v\n%s", err, msg)
	}

	// Usage error: the gate needs a trajectory to compare against.
	var stderr bytes.Buffer
	cmd := exec.Command(bench, "-hostbench", "-", "-check", "-scale", "test")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-check without -history: err = %v, want exit 2 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-check only makes sense") {
		t.Errorf("usage stderr = %q", stderr.String())
	}

	// A last entry with impossible throughput: any real measurement is
	// a >10% regression against it.
	histPath := filepath.Join(dir, "history.json")
	inflated := schema.HostBenchHistory{
		Schema: schema.HostBenchHistoryV1,
		Entries: []schema.HostBenchHistoryEntry{{
			Time:  "2026-01-01T00:00:00Z",
			Scale: "test",
			Entries: []schema.HostBenchEntry{{
				Benchmark: "x", Instructions: 1, InterpNS: 1, FastNS: 1, BlocksNS: 1,
				InterpMIPS: 1, FastMIPS: 1, BlocksMIPS: 1, Speedup: 1, BlocksSpeedup: 1,
			}},
			Total: schema.HostBenchEntry{
				Benchmark: "total", Instructions: 1, InterpNS: 1, FastNS: 1, BlocksNS: 1,
				InterpMIPS: 1e9, FastMIPS: 1e9, BlocksMIPS: 1e9, Speedup: 1, BlocksSpeedup: 1,
			},
		}},
	}
	f, err := os.Create(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := inflated.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stderr.Reset()
	cmd = exec.Command(bench, "-hostbench", filepath.Join(dir, "host.json"),
		"-history", histPath, "-check", "-scale", "test")
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("inflated history: err = %v, want exit 1 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regressed") {
		t.Errorf("regression stderr = %q, want it to name the regression", stderr.String())
	}

	// The failing measurement must still have been recorded.
	raw, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	var h schema.HostBenchHistory
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 2 {
		t.Fatalf("history has %d entries after the failing run, want 2", len(h.Entries))
	}
	if h.Entries[1].Total.BlocksMIPS <= 0 {
		t.Errorf("appended measurement has no blocks MIPS: %+v", h.Entries[1].Total)
	}

	// Against its own just-recorded measurement (with a generous
	// tolerance absorbing host jitter) the gate passes.
	stderr.Reset()
	cmd = exec.Command(bench, "-hostbench", "-",
		"-history", histPath, "-check", "-check-tolerance", "75", "-scale", "test")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Errorf("honest history: %v, want exit 0 (stderr: %s)", err, stderr.String())
	}
}

// TestFuzzSmoke gives each native fuzz target a short budget so the
// corpus-free properties (assembler never panics on hostile text,
// envelope decode/encode loop is stable) run on every CI pass, not
// only when someone invokes go test -fuzz by hand.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns toolchain")
	}
	targets := []struct{ name, pkg string }{
		{"FuzzAssembleRoundTrip", "roload/internal/asm"},
		{"FuzzEnvelopeDecode", "roload/internal/schema"},
		{"FuzzCheckpointDecode", "roload/internal/schema"},
		{"FuzzTraceDecode", "roload/internal/schema"},
		{"FuzzArtifactVerify", "roload/internal/schema"},
		{"FuzzBlockTranslate", "roload/internal/kernel"},
		{"FuzzStoreDecode", "roload/internal/store"},
		{"FuzzGatewayConfigDecode", "roload/internal/gateway"},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			cmd := exec.Command("go", "test",
				"-fuzz="+tg.name, "-fuzztime=5s", "-run=^$", tg.pkg)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("fuzz smoke %s: %v\n%s", tg.name, err, out)
			}
		})
	}
}

// TestCLICheckpointResume drives the kill-and-resume workflow through
// the real binaries: run with -checkpoint-every, then resume from the
// written roload-checkpoint/v1 document. The resumed run's stdout,
// exit status and -metrics document must be byte-identical to the
// uninterrupted run — the crash-consistency claim at the CLI surface.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.mc")
	prog := `
func main() int {
	var i int = 0;
	var acc int = 0;
	while (i < 30000) {
		acc = acc + i;
		i = i + 1;
	}
	print_int(acc);
	return 0;
}
`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	run := filepath.Join(bin, "roload-run")

	// Uninterrupted reference run.
	refMetrics := filepath.Join(dir, "ref.json")
	refOut, err := exec.Command(run, "-metrics", refMetrics, src).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Checkpointed run: the stride guarantees several checkpoints.
	ck := filepath.Join(dir, "ck.json")
	ckMetrics := filepath.Join(dir, "ck-run.json")
	ckOut, err := exec.Command(run,
		"-checkpoint", ck, "-checkpoint-every", "40000",
		"-metrics", ckMetrics, src).Output()
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if string(ckOut) != string(refOut) {
		t.Errorf("checkpointed stdout %q != reference %q", ckOut, refOut)
	}
	assertSameFile(t, refMetrics, ckMetrics, "checkpointed-run metrics")

	// The checkpoint file must be a valid roload-checkpoint/v1 doc.
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Instret uint64 `json:"instret"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if doc.Schema != schema.CheckpointV1 || doc.Instret == 0 {
		t.Fatalf("checkpoint doc = %+v", doc)
	}

	// Resume from the last checkpoint (simulating a crash after it was
	// written): observables must match the uninterrupted run exactly.
	resMetrics := filepath.Join(dir, "resume.json")
	resOut, err := exec.Command(run, "-resume", ck, "-metrics", resMetrics, src).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if string(resOut) != string(refOut) {
		t.Errorf("resumed stdout %q != reference %q", resOut, refOut)
	}
	assertSameFile(t, refMetrics, resMetrics, "resumed-run metrics")

	// Resuming against a different image must be refused.
	other := filepath.Join(dir, "other.mc")
	if err := os.WriteFile(other, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Command(run, "-resume", ck, other).Output(); err == nil {
		t.Error("resume with a different program was not rejected")
	}
}

// TestCLIResumeMismatchExit2 pins the usage-error contract of -resume:
// resuming a checkpoint against a different program must exit 2 (not
// the generic 1) and the diagnostic must name both image digests, so
// the operator can see which of the two arguments is the wrong one.
func TestCLIResumeMismatchExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.mc")
	if err := os.WriteFile(src, []byte(loopToolProg), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.mc")
	if err := os.WriteFile(other, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}
	run := filepath.Join(bin, "roload-run")

	ck := filepath.Join(dir, "ck.json")
	if _, err := exec.Command(run, "-checkpoint", ck, "-checkpoint-every", "10000", src).Output(); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ImageSHA256 string `json:"image_sha256"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(run, "-resume", ck, other)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("resume with a different program: err = %v, want an exit error", err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("resume mismatch exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "does not match checkpoint digest") {
		t.Errorf("stderr does not explain the mismatch: %s", msg)
	}
	if !strings.Contains(msg, doc.ImageSHA256) {
		t.Errorf("stderr does not name the checkpoint digest %s: %s", doc.ImageSHA256, msg)
	}
	digests := regexp.MustCompile(`[0-9a-f]{64}`).FindAllString(msg, -1)
	distinct := map[string]bool{}
	for _, d := range digests {
		distinct[d] = true
	}
	if len(distinct) != 2 {
		t.Errorf("stderr names %d distinct digests, want both sides: %s", len(distinct), msg)
	}
}

// loopToolProg is the deterministic multi-sync-point workload the
// supervisor tests drive: long enough that a 20k cross-check stride
// yields several sync points, with a data-dependent final print so any
// surviving corruption changes the observable output.
const loopToolProg = `
func main() int {
	var i int = 0;
	var acc int = 0;
	while (i < 30000) {
		acc = acc + i;
		i = i + 1;
	}
	print_int(acc);
	return 0;
}
`

// TestCLIStoreCheckpointResume drives the store-backed checkpoint
// workflow through the real binary: -store DIR -checkpoint store://
// persists digest-keyed checkpoints (announcing each on stderr as
// "store://<digest>"), and -resume store://<digest> completes the
// program with the uninterrupted run's exact stdout and metrics. A
// store:// spelling without -store is a usage error (exit 2).
func TestCLIStoreCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.mc")
	if err := os.WriteFile(src, []byte(loopToolProg), 0o644); err != nil {
		t.Fatal(err)
	}
	run := filepath.Join(bin, "roload-run")
	storeDir := filepath.Join(dir, "artifacts")

	refMetrics := filepath.Join(dir, "ref.json")
	refOut, err := exec.Command(run, "-metrics", refMetrics, src).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	ckMetrics := filepath.Join(dir, "ck-run.json")
	cmd := exec.Command(run, "-store", storeDir,
		"-checkpoint", "store://", "-checkpoint-every", "40000",
		"-metrics", ckMetrics, src)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	ckOut, err := cmd.Output()
	if err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, stderr.String())
	}
	if string(ckOut) != string(refOut) {
		t.Errorf("checkpointed stdout %q != reference %q", ckOut, refOut)
	}
	assertSameFile(t, refMetrics, ckMetrics, "checkpointed-run metrics")

	digests := regexp.MustCompile(`store://([0-9a-f]{64})`).FindAllStringSubmatch(stderr.String(), -1)
	if len(digests) < 2 {
		t.Fatalf("expected several checkpoint announcements, got:\n%s", stderr.String())
	}
	last := digests[len(digests)-1][1]

	resMetrics := filepath.Join(dir, "resume.json")
	resOut, err := exec.Command(run, "-store", storeDir,
		"-resume", "store://"+last, "-metrics", resMetrics, src).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if string(resOut) != string(refOut) {
		t.Errorf("resumed stdout %q != reference %q", resOut, refOut)
	}
	assertSameFile(t, refMetrics, resMetrics, "resumed-run metrics")

	// store:// without -store: usage error, exit 2.
	err = exec.Command(run, "-resume", "store://"+last, src).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("store:// resume without -store: err = %v, want exit 2", err)
	}

	// Resuming a stored checkpoint against a different program keeps
	// the mismatch contract: exit 2, both digests named.
	other := filepath.Join(dir, "other.mc")
	if err := os.WriteFile(other, []byte(smokeProg), 0o644); err != nil {
		t.Fatal(err)
	}
	mcmd := exec.Command(run, "-store", storeDir, "-resume", "store://"+last, other)
	var mErr bytes.Buffer
	mcmd.Stderr = &mErr
	err = mcmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("mismatched store resume: err = %v, want exit 2\n%s", err, mErr.String())
	}
	if !strings.Contains(mErr.String(), "does not match checkpoint digest") {
		t.Errorf("mismatch stderr does not explain itself: %s", mErr.String())
	}
}

// TestCLIHealMatrix drives roload-run -redundant 3 -heal across three
// fault seeds: every supervised run must (a) produce stdout and a
// metrics document byte-identical to the fault-free solo run — the
// self-healing claim at the CLI surface, (b) emit a valid
// roload-heal/v1 report that agreed after healing (no quarantine), and
// (c) reproduce the report byte-for-byte when re-run with the same
// seed.
func TestCLIHealMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.mc")
	if err := os.WriteFile(src, []byte(loopToolProg), 0o644); err != nil {
		t.Fatal(err)
	}
	run := filepath.Join(bin, "roload-run")

	// Fault-free solo reference.
	refMetrics := filepath.Join(dir, "ref-metrics.json")
	refOut, err := exec.Command(run, "-harden", "icall", "-metrics", refMetrics, src).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	for _, seed := range []string{"3", "7", "11"} {
		t.Run("seed-"+seed, func(t *testing.T) {
			healPath := filepath.Join(dir, "heal-"+seed+".json")
			m := filepath.Join(dir, "metrics-"+seed+".json")
			args := []string{"-harden", "icall",
				"-redundant", "3", "-heal", "-sync-every", "20000",
				"-fault-count", "2", "-fault-seed", seed, "-fault-replica", "1",
				"-heal-report", healPath, "-metrics", m, src}
			out, err := exec.Command(run, args...).Output()
			if err != nil {
				t.Fatalf("supervised run: %v", err)
			}
			if string(out) != string(refOut) {
				t.Errorf("supervised stdout %q != fault-free %q", out, refOut)
			}
			assertSameFile(t, refMetrics, m, "supervised-run metrics")

			raw, err := os.ReadFile(healPath)
			if err != nil {
				t.Fatalf("no heal report written: %v", err)
			}
			var rep schema.HealReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("heal report is not JSON: %v", err)
			}
			if rep.Schema != schema.HealV1 {
				t.Errorf("heal report schema = %q, want %q", rep.Schema, schema.HealV1)
			}
			if !rep.Agreed {
				t.Error("supervised run did not end in agreement")
			}
			if len(rep.Divergences) == 0 || len(rep.Heals) == 0 {
				t.Errorf("seed %s fired no divergence/heal (divergences %d, heals %d): the matrix proved nothing",
					seed, len(rep.Divergences), len(rep.Heals))
			}
			for _, h := range rep.Heals {
				if h.Replica != 1 || !h.Recovered {
					t.Errorf("heal action %+v, want replica 1 recovered", h)
				}
			}
			if len(rep.Quarantined) != 0 {
				t.Errorf("healing run quarantined replicas %v", rep.Quarantined)
			}

			// Same seed, same report: the whole supervised run is a pure
			// function of its inputs.
			healPath2 := filepath.Join(dir, "heal-"+seed+"-again.json")
			args2 := []string{"-harden", "icall",
				"-redundant", "3", "-heal", "-sync-every", "20000",
				"-fault-count", "2", "-fault-seed", seed, "-fault-replica", "1",
				"-heal-report", healPath2, src}
			if _, err := exec.Command(run, args2...).Output(); err != nil {
				t.Fatalf("repeat supervised run: %v", err)
			}
			assertSameFile(t, healPath, healPath2, "heal report reproducibility")
		})
	}
}

// assertSameFile compares two files byte-for-byte.
func assertSameFile(t *testing.T, a, b, what string) {
	t.Helper()
	ra, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Errorf("%s differs:\n%s\n----\n%s", what, ra, rb)
	}
}

// TestCLIChaosMatrix runs roload-attack -chaos end-to-end: the matrix
// must pass (exit 0), and the rendering must name the fault-plan seed
// so any verdict is reproducible from the printed report alone.
func TestCLIChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	out, err := exec.Command(filepath.Join(bin, "roload-attack"), "-chaos", "-seed", "11").Output()
	if err != nil {
		t.Fatalf("roload-attack -chaos: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "seed 11") {
		t.Errorf("chaos report does not name the seed:\n%s", s)
	}
	for _, want := range []string{"hijacked-silent", "caught-roload", "fptr-call", "vtable-call"} {
		if !strings.Contains(s, want) {
			t.Errorf("chaos report missing %q:\n%s", want, s)
		}
	}
}

// TestTraceSchemaValidates drives one traced run through the in-process
// service and checks the GET /v1/runs/{id}/trace body against the
// roload-trace/v1 schema: tagged, run-id stamped, and every span
// well-formed with resolvable parents.
func TestTraceSchemaValidates(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()

	const runID = "run-tools-trace-check"
	raw, _ := json.Marshal(schema.RunRequest{Source: smokeProg})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Roload-Trace", runID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Roload-Trace"); got != runID {
		t.Errorf("Roload-Trace echo = %q, want %q", got, runID)
	}

	tresp, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	data, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", tresp.StatusCode, data)
	}
	var doc schema.TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace body does not decode: %v", err)
	}
	if err := doc.Validate(); err != nil {
		t.Errorf("trace document invalid: %v", err)
	}
	if doc.Schema != schema.TraceV1 {
		t.Errorf("trace schema tag = %q, want %q", doc.Schema, schema.TraceV1)
	}
	if doc.RunID != runID {
		t.Errorf("trace run id = %q", doc.RunID)
	}
	if len(doc.Spans) == 0 {
		t.Error("trace has no spans")
	}
}

// TestBatchSchemaValidates pins the roload-batch/v1 document contract
// end to end: a real batch's report validates, round-trips through the
// versioned-schema registry (DecodeAny re-yields a *schema.BatchReport
// under the right id), and every per-run body is itself a decodable
// roload-serve/v1 envelope.
func TestBatchSchemaValidates(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()

	raw, _ := json.Marshal(schema.BatchRequest{
		Source: smokeProg,
		Runs:   []schema.BatchRunSpec{{}, {System: "baseline"}},
	})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, data)
	}

	var env schema.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("batch body is not an envelope: %v", err)
	}
	var report schema.BatchReport
	if err := env.Open(schema.ServeV1, &report); err != nil {
		t.Fatal(err)
	}
	if err := report.Validate(); err != nil {
		t.Errorf("batch report invalid: %v", err)
	}
	if report.Compiles != 1 {
		t.Errorf("cold batch Compiles = %d, want 1", report.Compiles)
	}

	// The bare document (the shape the artifact store persists) decodes
	// through the registry to the right type.
	bare, err := json.Marshal(&report)
	if err != nil {
		t.Fatal(err)
	}
	id, doc, err := schema.DecodeAny(bare)
	if err != nil {
		t.Fatalf("registry does not decode the batch report: %v", err)
	}
	if _, ok := doc.(*schema.BatchReport); !ok || id != schema.BatchV1 {
		t.Errorf("registry decoded %q %T, want %q *schema.BatchReport", id, doc, schema.BatchV1)
	}

	// Each per-run body is a complete serve envelope.
	for i, run := range report.Runs {
		var renv schema.Envelope
		if err := json.Unmarshal([]byte(run.Body), &renv); err != nil {
			t.Errorf("run %d body is not an envelope: %v", i, err)
			continue
		}
		if renv.Schema != schema.ServeV1 {
			t.Errorf("run %d body schema = %q", i, renv.Schema)
		}
	}
}

// TestGatewayRace re-runs the gateway tests (health state machine,
// failover proxy, idempotency pin, SSE relay, goroutine-leak checks)
// under the race detector, like TestServiceRace does for the service.
func TestGatewayRace(t *testing.T) {
	raceTest(t, "roload/internal/gateway")
}

// TestCLIGatewayChaos is the fleet-robustness claim end to end with
// the real binaries: a roload-gateway fronting two roload-serve
// backends takes roload-loadgen traffic while one backend is killed
// with SIGKILL mid-load. The load generator must finish with zero
// failed requests and zero byte mismatches, its report must record the
// failover (retries > 0), every spec digest must equal the
// single-backend baseline's — the client could not tell a backend died
// — and the report must decode through the versioned-schema registry.
func TestCLIGatewayChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	startTool := func(name string, args ...string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var logs bytes.Buffer
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		return cmd, &logs
	}
	waitReady := func(root string, logs *bytes.Buffer) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(root + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s never became healthy:\n%s", root, logs.String())
	}
	readReport := func(path string) *schema.LoadgenReport {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no loadgen report: %v", err)
		}
		id, doc, err := schema.DecodeAny(raw)
		if err != nil {
			t.Fatalf("report does not decode through the registry: %v", err)
		}
		rep, ok := doc.(*schema.LoadgenReport)
		if !ok || id != schema.LoadgenV1 {
			t.Fatalf("registry decoded %q %T, want %q *schema.LoadgenReport", id, doc, schema.LoadgenV1)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("report invalid: %v", err)
		}
		return rep
	}

	addr1, addr2, addrGW := freePort(), freePort(), freePort()
	u1, u2, gw := "http://"+addr1, "http://"+addr2, "http://"+addrGW

	s1, logs1 := startTool("roload-serve", "-addr", addr1, "-workers", "2")
	s2, logs2 := startTool("roload-serve", "-addr", addr2, "-workers", "2")
	serves := map[string]*exec.Cmd{u1: s1, u2: s2}
	waitReady(u1, logs1)
	waitReady(u2, logs2)
	_, gwLogs := startTool("roload-gateway",
		"-addr", addrGW, "-backends", u1+","+u2, "-probe-interval", "100ms")
	waitReady(gw, gwLogs)

	loadgen := filepath.Join(bin, "roload-loadgen")

	// Single-backend baseline: the reference spec digests.
	basePath := filepath.Join(dir, "baseline.json")
	if out, err := exec.Command(loadgen, "-url", u1, "-requests", "30",
		"-concurrency", "4", "-harden", "icall", "-out", basePath).CombinedOutput(); err != nil {
		t.Fatalf("baseline loadgen: %v\n%s", err, out)
	}
	baseline := readReport(basePath)
	if baseline.Errors != 0 || baseline.OK != baseline.Sent {
		t.Fatalf("baseline not clean: %+v", baseline)
	}
	baseDigest := map[string]string{}
	for _, s := range baseline.Specs {
		if s.Digest == "" {
			t.Fatalf("baseline spec %s has no digest", s.Name)
		}
		baseDigest[s.Name] = s.Digest
	}

	// Warm-up through the gateway, then pick the victim: a backend that
	// demonstrably owns live traffic, so killing it must force failover.
	warmPath := filepath.Join(dir, "warmup.json")
	if out, err := exec.Command(loadgen, "-url", gw, "-requests", "12",
		"-concurrency", "3", "-harden", "icall", "-out", warmPath).CombinedOutput(); err != nil {
		t.Fatalf("warmup loadgen: %v\n%s", err, out)
	}
	var env schema.Envelope
	var gwMetrics schema.GatewayMetrics
	resp, err := http.Get(gw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := env.Open(schema.ServeV1, &gwMetrics); err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, b := range []string{u1, u2} {
		if gwMetrics.Backends[b].Proxied > 0 &&
			(victim == "" || gwMetrics.Backends[b].Proxied > gwMetrics.Backends[victim].Proxied) {
			victim = b
		}
	}
	if victim == "" {
		t.Fatalf("no backend proxied warmup traffic: %+v", gwMetrics.Backends)
	}

	// Chaos run: open-loop load for 3s, SIGKILL the victim 1s in.
	chaosPath := filepath.Join(dir, "chaos.json")
	chaos := exec.Command(loadgen, "-url", gw, "-mode", "open", "-rate", "100",
		"-duration", "3s", "-harden", "icall", "-out", chaosPath)
	var chaosLogs bytes.Buffer
	chaos.Stdout = &chaosLogs
	chaos.Stderr = &chaosLogs
	if err := chaos.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	if err := serves[victim].Process.Kill(); err != nil {
		t.Fatalf("killing %s: %v", victim, err)
	}
	if err := chaos.Wait(); err != nil {
		t.Fatalf("loadgen saw client-visible failures: %v\n%s\ngateway:\n%s",
			err, chaosLogs.String(), gwLogs.String())
	}

	report := readReport(chaosPath)
	if report.Sent == 0 || report.Errors != 0 || report.Mismatches != 0 || report.OK != report.Sent {
		t.Fatalf("chaos report not clean: sent %d ok %d errors %d mismatches %d",
			report.Sent, report.OK, report.Errors, report.Mismatches)
	}
	if report.Retries == 0 {
		t.Error("chaos report records no retries: the failover left no trace")
	}
	for _, s := range report.Specs {
		if s.Digest != baseDigest[s.Name] {
			t.Errorf("spec %s digest %s != baseline %s: failover changed observable bytes",
				s.Name, s.Digest, baseDigest[s.Name])
		}
	}

	// The gateway survived the loss: still healthy, failover recorded,
	// the victim ejected.
	resp, err = http.Get(gw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	env = schema.Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := env.Open(schema.ServeV1, &gwMetrics); err != nil {
		t.Fatal(err)
	}
	if gwMetrics.Failovers == 0 {
		t.Error("gateway metrics record no failovers")
	}
	if s := gwMetrics.Backends[victim].State; s != "ejected" && s != "half-open" {
		t.Errorf("victim state = %q, want ejected (or half-open re-probing)", s)
	}
	waitReady(gw, gwLogs)
}

// TestCLILoadgenSLO drives the loadgen's soak and latency-gate flags:
// a -soak run with generous SLO targets exits clean and records the
// measured quantiles against the targets in the report's slo section;
// an impossible p99 target names "p99" in Breached and exits 1.
func TestCLILoadgenSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()

	addr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}()
	u := "http://" + addr
	serve := exec.Command(filepath.Join(bin, "roload-serve"), "-addr", addr, "-workers", "2")
	var serveLogs bytes.Buffer
	serve.Stdout, serve.Stderr = &serveLogs, &serveLogs
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		serve.Process.Kill() //nolint:errcheck
		serve.Wait()         //nolint:errcheck
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(u + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became healthy:\n%s", serveLogs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	loadgen := filepath.Join(bin, "roload-loadgen")
	readReport := func(path string) *schema.LoadgenReport {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no loadgen report: %v", err)
		}
		id, doc, err := schema.DecodeAny(raw)
		if err != nil {
			t.Fatalf("report does not decode: %v", err)
		}
		rep, ok := doc.(*schema.LoadgenReport)
		if !ok || id != schema.LoadgenV1 {
			t.Fatalf("registry decoded %q %T", id, doc)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("report invalid: %v", err)
		}
		return rep
	}

	// Soak with targets no real latency misses: clean exit, slo section
	// present and unbreached.
	okPath := filepath.Join(dir, "slo-ok.json")
	if out, err := exec.Command(loadgen, "-url", u, "-soak", "1s", "-concurrency", "2",
		"-slo-p50", "1m", "-slo-p99", "5m", "-out", okPath).CombinedOutput(); err != nil {
		t.Fatalf("soak loadgen: %v\n%s", err, out)
	}
	ok := readReport(okPath)
	if ok.SLO == nil || len(ok.SLO.Breached) != 0 {
		t.Fatalf("clean soak slo = %+v", ok.SLO)
	}
	if ok.SLO.P50US == 0 || ok.SLO.P99US == 0 || ok.SLO.P99US < ok.SLO.P50US {
		t.Errorf("measured quantiles implausible: %+v", ok.SLO)
	}
	if ok.SLO.TargetP50US != 60_000_000 || ok.SLO.TargetP99US != 300_000_000 {
		t.Errorf("targets not echoed: %+v", ok.SLO)
	}
	if ok.Sent == 0 || ok.Errors != 0 {
		t.Errorf("soak run not clean: sent %d errors %d", ok.Sent, ok.Errors)
	}

	// An impossible p99: the gate names it and the process exits 1.
	badPath := filepath.Join(dir, "slo-bad.json")
	var stderr bytes.Buffer
	cmd := exec.Command(loadgen, "-url", u, "-requests", "10", "-concurrency", "2",
		"-slo-p99", "1us", "-out", badPath)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("impossible SLO: err = %v, want exit 1 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "SLO breached") {
		t.Errorf("breach stderr = %q", stderr.String())
	}
	bad := readReport(badPath)
	if bad.SLO == nil || len(bad.SLO.Breached) != 1 || bad.SLO.Breached[0] != "p99" {
		t.Fatalf("breached = %+v, want [p99]", bad.SLO)
	}
}

// TestCLIDurableBatchChaos is the durable-fleet-state acceptance test,
// end to end through the real binaries: a checkpointing batch runs
// through a replicated 3-backend fleet, the backend that owns its
// checkpoints and results is SIGKILLed, and re-driving the same batch
// id through the gateway completes on a survivor — the interrupted run
// resumes from its replicated checkpoint to the uninterrupted run's
// exact observables, every finished run replays byte-identically from
// its replicated result artifact, and no run is lost.
func TestCLIDurableBatchChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	startTool := func(name string, args ...string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var logs bytes.Buffer
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		return cmd, &logs
	}
	waitReady := func(root string, logs *bytes.Buffer) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(root + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s never became healthy:\n%s", root, logs.String())
	}
	postJSON := func(url string, body any, header map[string]string) (int, http.Header, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, data
	}
	openServe := func(data []byte, out any) {
		t.Helper()
		var env schema.Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("undecodable body %q: %v", data, err)
		}
		if err := env.Open(schema.ServeV1, out); err != nil {
			t.Fatal(err)
		}
	}

	const prog = "func main() int {\n\tvar i int = 0;\n\tvar sum int = 0;\n\twhile (i < 20000) { sum = sum + i; i = i + 1; }\n\tprint_int(sum);\n\treturn 0;\n}\n"

	addr1, addr2, addr3, addrGW := freePort(), freePort(), freePort(), freePort()
	u1, u2, u3, gw := "http://"+addr1, "http://"+addr2, "http://"+addr3, "http://"+addrGW
	serves := map[string]*exec.Cmd{}
	for u, a := range map[string]string{u1: addr1, u2: addr2, u3: addr3} {
		cmd, logs := startTool("roload-serve",
			"-addr", a, "-workers", "2", "-store", t.TempDir())
		serves[u] = cmd
		waitReady(u, logs)
	}
	_, gwLogs := startTool("roload-gateway", "-addr", addrGW,
		"-backends", u1+","+u2+","+u3,
		"-probe-interval", "100ms", "-eject-after", "1", "-replicas", "2")
	waitReady(gw, gwLogs)

	// The uninterrupted reference: what the interrupted run must
	// reproduce after its cross-backend resume.
	rstatus, _, rdata := postJSON(gw+"/v1/run",
		schema.RunRequest{Source: prog, Harden: "icall"}, nil)
	if rstatus != http.StatusOK {
		t.Fatalf("reference run status = %d: %s", rstatus, rdata)
	}
	var ref schema.RunResponse
	openServe(rdata, &ref)

	// The batch: one run that checkpoints and hits its step limit, and
	// three that complete. Its artifacts (checkpoints, run results) are
	// write-through-replicated to the shard's ring successor as the
	// serving backend produces them.
	batch := schema.BatchRequest{
		Source: prog, Harden: "icall",
		Runs: []schema.BatchRunSpec{
			{MaxSteps: 100_000, CheckpointEvery: 40_000},
			{},
			{System: "baseline"},
			{System: "full"},
		},
	}
	hdr := map[string]string{"Roload-Trace": "durable-e2e"}
	status, bhdr, data := postJSON(gw+"/v1/batch", batch, hdr)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d: %s", status, data)
	}
	var first schema.BatchReport
	openServe(data, &first)
	if first.Runs[0].Status != http.StatusUnprocessableEntity {
		t.Fatalf("run 1 status = %d, want 422 step-limit", first.Runs[0].Status)
	}
	for i := 1; i < 4; i++ {
		if first.Runs[i].Status != http.StatusOK {
			t.Fatalf("run %d status = %d: %s", i+1, first.Runs[i].Status, first.Runs[i].Body)
		}
	}
	var partial schema.ErrorResponse
	openServe([]byte(first.Runs[0].Body), &partial)
	if len(partial.Checkpoints) == 0 {
		t.Fatal("interrupted run left no checkpoints")
	}
	last := partial.Checkpoints[len(partial.Checkpoints)-1]

	// kill -9 the backend that owns the batch's state, and wait until
	// the gateway has ejected it.
	victim := bhdr.Get("Roload-Gateway-Backend")
	if serves[victim] == nil {
		t.Fatalf("unknown serving backend %q", victim)
	}
	if err := serves[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	ejectDeadline := time.Now().Add(10 * time.Second)
	for {
		var env schema.Envelope
		var m schema.GatewayMetrics
		resp, err := http.Get(gw + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Open(schema.ServeV1, &m); err != nil {
			t.Fatal(err)
		}
		if m.Backends[victim].State == "ejected" {
			break
		}
		if time.Now().After(ejectDeadline) {
			t.Fatalf("victim never ejected: %+v\ngateway:\n%s", m.Backends, gwLogs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Re-drive the same batch id through the gateway, the interrupted
	// run switched to resume from its last replicated checkpoint.
	batch.Runs[0] = schema.BatchRunSpec{Resume: "store://" + last}
	status, bhdr, data = postJSON(gw+"/v1/batch", batch, hdr)
	if status != http.StatusOK {
		t.Fatalf("re-driven batch status = %d: %s\ngateway:\n%s", status, data, gwLogs.String())
	}
	if got := bhdr.Get("Roload-Gateway-Backend"); got == victim {
		t.Fatalf("re-driven batch reportedly served by the killed backend")
	}
	var second schema.BatchReport
	openServe(data, &second)

	// Zero lost runs: the resumed run completes, the finished runs
	// replay byte-identically from their replicated artifacts.
	if second.Skipped != 3 {
		t.Errorf("skipped = %d, want 3", second.Skipped)
	}
	for i := 1; i < 4; i++ {
		if !second.Runs[i].Skipped {
			t.Errorf("run %d re-executed; its replicated result should have replayed", i+1)
		}
		if second.Runs[i].Body != first.Runs[i].Body {
			t.Errorf("run %d replay diverges from the original bytes", i+1)
		}
	}
	if second.Runs[0].Skipped || second.Runs[0].Status != http.StatusOK {
		t.Fatalf("resumed run 1 = skipped %v status %d: %s",
			second.Runs[0].Skipped, second.Runs[0].Status, second.Runs[0].Body)
	}
	var resumed schema.RunResponse
	openServe([]byte(second.Runs[0].Body), &resumed)
	if resumed.Stdout != ref.Stdout || resumed.ExitStatus != ref.ExitStatus {
		t.Errorf("resumed run diverges: stdout %q vs %q", resumed.Stdout, ref.Stdout)
	}
	if resumed.Metrics == nil || ref.Metrics == nil || resumed.Metrics.Instret != ref.Metrics.Instret {
		t.Errorf("resumed run's instruction count diverges from the uninterrupted run")
	}
}

// TestHostBenchHistoryValidates checks the committed BENCH_history.json
// against the roload-hostbench-history/v1 schema — the perf-trajectory
// file `roload-bench -hostbench -history` appends to.
func TestHostBenchHistoryValidates(t *testing.T) {
	data, err := os.ReadFile("BENCH_history.json")
	if err != nil {
		t.Fatalf("BENCH_history.json missing (regenerate with roload-bench -hostbench BENCH_host.json -history BENCH_history.json -scale test): %v", err)
	}
	var h schema.HostBenchHistory
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("BENCH_history.json does not decode: %v", err)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("BENCH_history.json invalid: %v", err)
	}
	if len(h.Entries) == 0 {
		t.Error("history has no entries")
	}
	for i, e := range h.Entries {
		if e.Total.Instructions == 0 || e.Total.FastMIPS <= 0 {
			t.Errorf("entry %d total looks unmeasured: %+v", i, e.Total)
		}
	}
	// The newest entry postdates the block engine: its blocks_* fields
	// must be measured, and the committed trajectory must document the
	// block engine beating the fast path (the engine's reason to exist).
	last := h.Entries[len(h.Entries)-1]
	if last.Total.BlocksNS <= 0 || last.Total.BlocksMIPS <= 0 {
		t.Errorf("newest entry has no blocks measurement: %+v", last.Total)
	}
	if last.Total.BlocksSpeedup < 2 {
		t.Errorf("newest entry blocks_speedup = %.2f, want >= 2 over the fast path", last.Total.BlocksSpeedup)
	}
	for _, e := range last.Entries {
		if e.BlocksNS <= 0 || e.BlocksMIPS <= 0 || e.BlocksSpeedup <= 0 {
			t.Errorf("newest entry benchmark %s missing blocks_* fields: %+v", e.Benchmark, e)
		}
	}
}

// TestHostBenchSnapshotValidates checks the committed BENCH_host.json
// snapshot carries all three engines' measurements.
func TestHostBenchSnapshotValidates(t *testing.T) {
	data, err := os.ReadFile("BENCH_host.json")
	if err != nil {
		t.Fatalf("BENCH_host.json missing (regenerate with roload-bench -hostbench BENCH_host.json -scale test): %v", err)
	}
	var doc schema.HostBench
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_host.json does not decode: %v", err)
	}
	if doc.Schema != "roload-hostbench/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Entries) == 0 {
		t.Fatal("snapshot has no benchmarks")
	}
	for _, e := range append(doc.Entries, doc.Total) {
		if e.InterpMIPS <= 0 || e.FastMIPS <= 0 || e.BlocksMIPS <= 0 {
			t.Errorf("benchmark %s missing an engine measurement: %+v", e.Benchmark, e)
		}
	}
}
