package spec

import (
	"context"
	"strings"
	"testing"

	"roload/internal/core"
)

// measure builds src with scheme h and runs it on the full system.
func measure(src string, h core.Hardening, maxSteps uint64) (core.Measurement, error) {
	img, _, err := core.Build(src, h)
	if err != nil {
		return core.Measurement{}, err
	}
	return core.MeasureImage(context.Background(), img, h, core.SysFull, core.RunOptions{MaxSteps: maxSteps})
}

func TestWorkloadRegistry(t *testing.T) {
	all := Workloads()
	if len(all) != 11 {
		t.Fatalf("workloads = %d, want 11 (SPEC CINT2006 minus perlbench)", len(all))
	}
	cxx := 0
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.Lang == "C++" {
			cxx++
		}
		if w.RefScale <= w.TestScale {
			t.Errorf("%s: RefScale %d must exceed TestScale %d", w.Name, w.RefScale, w.TestScale)
		}
	}
	if cxx != 3 {
		t.Errorf("C++ workloads = %d, want 3", cxx)
	}
	if len(CXX()) != 3 {
		t.Errorf("CXX() = %d entries", len(CXX()))
	}
	if _, ok := ByName("429.mcf"); !ok {
		t.Error("ByName failed")
	}
	if _, ok := ByName("400.perlbench"); ok {
		t.Error("perlbench must be excluded (paper Section V-B)")
	}
}

func TestSourceForSubstitutesScale(t *testing.T) {
	w, _ := ByName("401.bzip2")
	src := w.SourceFor(77)
	if !strings.Contains(src, "= 77;") {
		t.Error("scale not substituted")
	}
	if strings.Contains(src, "__SCALE__") {
		t.Error("placeholder left in source")
	}
}

// Every workload must compile, run to completion on the full system,
// print output, and produce identical results under every hardening
// scheme — the backward-compatibility and correctness prerequisite for
// all of the paper's measurements.
func TestWorkloadsCorrectUnderAllHardenings(t *testing.T) {
	schemes := []core.Hardening{
		core.HardenNone, core.HardenVCall, core.HardenVTint,
		core.HardenICall, core.HardenCFI,
	}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			src := w.TestSource()
			var wantOut string
			var wantCode int
			for i, h := range schemes {
				m, err := measure(src, h, 200_000_000)
				if err != nil {
					t.Fatalf("%v: %v", h, err)
				}
				if !m.Result.Exited {
					t.Fatalf("%v: killed by %v (roload=%v va=%#x)",
						h, m.Result.Signal, m.Result.ROLoadViolation, m.Result.FaultVA)
				}
				if len(m.Result.Stdout) == 0 {
					t.Fatalf("%v: no output", h)
				}
				if i == 0 {
					wantOut = string(m.Result.Stdout)
					wantCode = m.Result.Code
					continue
				}
				if got := string(m.Result.Stdout); got != wantOut {
					t.Errorf("%v: output %q differs from baseline %q", h, got, wantOut)
				}
				if m.Result.Code != wantCode {
					t.Errorf("%v: exit %d differs from baseline %d", h, m.Result.Code, wantCode)
				}
			}
		})
	}
}

// The C++ workloads must actually exercise virtual dispatch, and at
// least some C workloads must exercise indirect calls — otherwise the
// figures would measure nothing.
func TestWorkloadCallProfiles(t *testing.T) {
	for _, w := range CXX() {
		m, err := measure(w.TestSource(), core.HardenVCall, 200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if m.Result.CPUStats.ROLoads == 0 {
			t.Errorf("%s: no protected vtable loads executed", w.Name)
		}
	}
	gccW, _ := ByName("403.gcc")
	m, err := measure(gccW.TestSource(), core.HardenICall, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Result.CPUStats.ROLoads == 0 {
		t.Error("403.gcc: no protected indirect-call loads executed")
	}
}

// Reference-scale runs must be big enough to be meaningful.
func TestRefScaleInstructionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("reference runs are slow")
	}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			m, err := measure(w.RefSource(), core.HardenNone, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Result.Exited {
				t.Fatalf("killed: %+v", m.Result.Signal)
			}
			if m.Result.Instret < 200_000 {
				t.Errorf("reference run retires only %d instructions; too small to measure", m.Result.Instret)
			}
		})
	}
}
