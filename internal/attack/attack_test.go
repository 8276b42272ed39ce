package attack

import (
	"context"
	"strings"
	"testing"

	"roload/internal/core"
)

func mount(t *testing.T, sc *Scenario, h core.Hardening) Result {
	t.Helper()
	r, err := sc.MountContext(context.Background(), h)
	if err != nil {
		t.Fatalf("%s under %v: %v", sc.Name, h, err)
	}
	return r
}

// The headline security result (paper Section V-C2): the VTable
// hijacking attack succeeds on the unprotected program and is stopped
// by VTint (trap) and by VCall (ROLoad fault).
func TestVTableHijackMatrix(t *testing.T) {
	sc := VTableHijack()
	if r := mount(t, sc, core.HardenNone); r.Outcome != Hijacked {
		t.Errorf("unprotected: %v (%s), want HIJACKED", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenVTint); r.Outcome != BlockedCheck {
		t.Errorf("VTint: %v (%s), want blocked by check", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenVCall); r.Outcome != BlockedROLoad {
		t.Errorf("VCall: %v (%s), want blocked by ROLoad", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenICall); r.Outcome != BlockedROLoad {
		t.Errorf("ICall: %v (%s), want blocked by ROLoad (unified vtable key)", r.Outcome, r.Detail)
	}
}

// Vtables themselves are immutable under every scheme: modern
// compilers already place them in read-only memory.
func TestVTableDirectWriteAlwaysFails(t *testing.T) {
	sc := VTableDirectWrite()
	for _, h := range MatrixSchemes {
		r := mount(t, sc, h)
		if r.Outcome != CorruptionFailed {
			t.Errorf("%v: %v (%s), want corruption blocked", h, r.Outcome, r.Detail)
		}
	}
}

// The forward-edge comparison the paper draws against coarse CFI:
// redirecting a function pointer to a whole-function entry defeats the
// label-based baseline (every function carries the shared ID) but not
// ICall.
func TestFptrToFunctionEntry(t *testing.T) {
	sc := FptrToFunctionEntry()
	if r := mount(t, sc, core.HardenNone); r.Outcome != Hijacked {
		t.Errorf("unprotected: %v (%s), want HIJACKED", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenCFI); r.Outcome != Hijacked {
		t.Errorf("coarse CFI: %v (%s), want HIJACKED (this is the paper's point)", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenICall); r.Outcome != BlockedROLoad {
		t.Errorf("ICall: %v (%s), want blocked by ROLoad", r.Outcome, r.Detail)
	}
}

// Mid-function targets are caught by both CFI (no ID word) and ICall.
func TestFptrToMidFunction(t *testing.T) {
	sc := FptrToMidFunction()
	if r := mount(t, sc, core.HardenNone); r.Outcome != Hijacked {
		// A mid-function jump on the unprotected binary executes from
		// the middle of evil; depending on the landing point it may
		// still print PWNED or crash. Accept either hijack or fault.
		if r.Outcome != BlockedFault {
			t.Errorf("unprotected: %v (%s)", r.Outcome, r.Detail)
		}
	}
	if r := mount(t, sc, core.HardenCFI); r.Outcome != BlockedCheck {
		t.Errorf("CFI: %v (%s), want blocked by check", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenICall); r.Outcome != BlockedROLoad {
		t.Errorf("ICall: %v (%s), want blocked by ROLoad", r.Outcome, r.Detail)
	}
}

// GFPT forgery in writable memory fails the read-only half of the
// pointee-integrity check.
func TestFptrWritableTrampoline(t *testing.T) {
	sc := FptrToWritableTrampoline()
	if r := mount(t, sc, core.HardenICall); r.Outcome != BlockedROLoad {
		t.Errorf("ICall: %v (%s), want blocked by ROLoad", r.Outcome, r.Detail)
	}
	if !strings.Contains(mount(t, sc, core.HardenICall).Detail, "key") {
		t.Error("detail should report the key mismatch")
	}
}

// The residual pointee-reuse surface (Section V-D): swapping in a
// *legitimate same-type* allowlist entry is not detected.
func TestPointeeReuseResidualSurface(t *testing.T) {
	sc := PointeeReuse()
	r := mount(t, sc, core.HardenICall)
	if r.Outcome != Survived {
		t.Fatalf("ICall: %v (%s), want attack to survive within the allowlist", r.Outcome, r.Detail)
	}
	// The handler was actually swapped: output shows square(6)=36
	// instead of double(6)=12.
	if !strings.Contains(string(r.Run.Stdout), "36") {
		t.Errorf("reuse did not take effect: output %q", r.Run.Stdout)
	}
}

// Reusing an entry of a *different* type is caught — the "type-based"
// in type-based CFI.
func TestWrongTypeReuseBlocked(t *testing.T) {
	sc := WrongTypeReuse()
	r := mount(t, sc, core.HardenICall)
	if r.Outcome != BlockedROLoad {
		t.Fatalf("ICall: %v (%s), want blocked by ROLoad key mismatch", r.Outcome, r.Detail)
	}
	if r.Run.FaultWantKey == r.Run.FaultGotKey {
		t.Errorf("fault keys equal (%d); expected a type-key mismatch", r.Run.FaultWantKey)
	}
	// Unprotected: hijack to pair() succeeds (called with garbage b).
	r = mount(t, sc, core.HardenNone)
	if r.Outcome == BlockedROLoad {
		t.Error("unprotected run cannot produce a ROLoad fault")
	}
}

// The coverage contract: every scheme listed in a scenario's Covered
// set must actually stop that attack, and the residual-surface
// scenario must not claim coverage.
func TestCoverageContract(t *testing.T) {
	for _, sc := range AllScenarios() {
		for _, h := range MatrixSchemes {
			if !sc.Covers(h) {
				continue
			}
			r := mount(t, sc, h)
			if r.Outcome == Hijacked {
				t.Errorf("%s: covered scheme %v was hijacked (%s)", sc.Name, h, r.Detail)
			}
		}
	}
	if PointeeReuse().Covers(core.HardenICall) {
		t.Error("pointee reuse must be documented as uncovered (Section V-D)")
	}
}

// Every scenario must produce a definite classification under every
// scheme without harness errors.
func TestMatrixRuns(t *testing.T) {
	results, err := MatrixContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AllScenarios())*len(MatrixSchemes) {
		t.Fatalf("results = %d", len(results))
	}
	hijacks := 0
	roblocks := 0
	for _, r := range results {
		if r.Outcome == Hijacked {
			hijacks++
		}
		if r.Outcome == BlockedROLoad {
			roblocks++
		}
	}
	if hijacks == 0 {
		t.Error("no attack ever succeeded; the threat model is not being exercised")
	}
	if roblocks == 0 {
		t.Error("no attack was ever blocked by ROLoad")
	}
}

// The backward-edge attack: only RetGuard stops a stack smash; the
// forward-edge schemes are oblivious by design.
func TestReturnSmash(t *testing.T) {
	sc := ReturnSmash()
	if r := mount(t, sc, core.HardenNone); r.Outcome != Hijacked {
		t.Errorf("unprotected: %v (%s), want HIJACKED", r.Outcome, r.Detail)
	}
	if r := mount(t, sc, core.HardenICall); r.Outcome != Hijacked {
		t.Errorf("ICall: %v (%s); forward-edge CFI cannot stop return smashes", r.Outcome, r.Detail)
	}
	r := mount(t, sc, core.HardenRetGuard)
	if r.Outcome != BlockedROLoad {
		t.Fatalf("RetGuard: %v (%s), want blocked by ROLoad", r.Outcome, r.Detail)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := Hijacked; o <= Survived; o++ {
		if o.String() == "" || strings.HasPrefix(o.String(), "outcome(") {
			t.Errorf("missing String for outcome %d", int(o))
		}
	}
}
