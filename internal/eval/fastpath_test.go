package eval

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"roload/internal/core"
	"roload/internal/cpu"
	"roload/internal/kernel"
	"roload/internal/mem"
	"roload/internal/spec"
)

// capture is everything observable about one simulated run: the full
// run result (cycles, instret, CPU/MMU/cache counters, stdout, audit),
// the roload-metrics/v1 snapshot document, a digest of all physical
// memory contents at exit, and the core's checkpointable state — TLB
// contents, cache tags and LRU stamps included.
type capture struct {
	res      kernel.RunResult
	snapJSON string
	memSum   uint64
	state    cpu.State
}

func runCell(t *testing.T, source string, h core.Hardening, sys core.SystemKind, eng core.Engine) capture {
	t.Helper()
	img, _, err := core.Build(source, h)
	if err != nil {
		t.Fatalf("build %v: %v", h, err)
	}
	cfg := sys.Config()
	cfg.MaxSteps = maxSteps
	eo := eng.Options(core.RunOptions{})
	cfg.CPU.NoFastPath = eo.NoFastPath
	cfg.CPU.NoBlocks = eo.NoBlocks
	machine := kernel.NewSystem(cfg)
	p, err := machine.Spawn(img)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	res, err := machine.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	snap := res.Snapshot(sys.String())
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	sum := fnv.New64a()
	page := make([]byte, mem.PageSize)
	phys := machine.Phys()
	for _, pn := range phys.PageNumbers() {
		binary.Write(sum, binary.LittleEndian, pn)
		if err := phys.Read(pn<<mem.PageShift, page); err != nil {
			t.Fatalf("reading page %#x: %v", pn, err)
		}
		sum.Write(page)
	}
	return capture{res: res, snapJSON: buf.String(), memSum: sum.Sum64(), state: machine.CPU().State()}
}

// TestFastPathEquivalence proves the execution engines' hard
// invariant: interpreter, per-instruction fast path and block engine
// produce, for every test-scale workload under every hardening
// scheme, bit-identical cycles, statistics, MMU and cache counters,
// metrics snapshot, program output, final physical memory contents,
// and final TLB and cache contents down to the LRU order. Runs that die with a signal (hardened binaries on the
// wrong system) must match too.
func TestFastPathEquivalence(t *testing.T) {
	type cell struct {
		name string
		src  string
		h    core.Hardening
		sys  core.SystemKind
	}
	// The full cross product: every workload × hardening × system cell
	// runs on all three engines, including the trap paths of hardened
	// binaries on systems that lack ld.ro support (SIGILL / SIGSEGV
	// deaths) — exactly the matrix the differential race check in
	// tools_test.go replays under the race detector.
	systems := []core.SystemKind{core.SysBaseline, core.SysProcessorOnly, core.SysFull}
	var cells []cell
	for _, w := range spec.Workloads() {
		for _, h := range []core.Hardening{core.HardenNone, core.HardenICall, core.HardenCFI, core.HardenRetGuard} {
			for _, sys := range systems {
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/%v/%v", w.Name, h, sys),
					src:  w.TestSource(), h: h, sys: sys,
				})
			}
		}
	}
	for _, w := range spec.CXX() {
		for _, h := range []core.Hardening{core.HardenVCall, core.HardenVTint, core.HardenFull} {
			for _, sys := range systems {
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/%v/%v", w.Name, h, sys),
					src:  w.TestSource(), h: h, sys: sys,
				})
			}
		}
	}
	if testing.Short() {
		// One workload's full hardening × system slab keeps every
		// engine code path (clean exits, SIGILL, SIGSEGV) in play.
		cells = cells[:12]
	}

	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			interp := runCell(t, c.src, c.h, c.sys, core.EngineInterp)
			for _, eng := range []core.Engine{core.EngineFast, core.EngineBlocks} {
				got := runCell(t, c.src, c.h, c.sys, eng)
				if got.res.Cycles != interp.res.Cycles {
					t.Errorf("cycles: %v %d, interp %d", eng, got.res.Cycles, interp.res.Cycles)
				}
				if got.res.Instret != interp.res.Instret {
					t.Errorf("instret: %v %d, interp %d", eng, got.res.Instret, interp.res.Instret)
				}
				if !reflect.DeepEqual(got.res, interp.res) {
					t.Errorf("run results differ:\n%v:     %+v\ninterp: %+v", eng, got.res, interp.res)
				}
				if got.snapJSON != interp.snapJSON {
					t.Errorf("metrics snapshots differ:\n%v:     %s\ninterp: %s", eng, got.snapJSON, interp.snapJSON)
				}
				if got.memSum != interp.memSum {
					t.Errorf("final memory contents differ (%v digest %#x, interp %#x)", eng, got.memSum, interp.memSum)
				}
				if !reflect.DeepEqual(got.state, interp.state) {
					t.Errorf("final core state (TLBs, cache tags and LRU order) differs between %v and interp", eng)
				}
			}
		})
	}
}
