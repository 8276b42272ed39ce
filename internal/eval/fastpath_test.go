package eval

import (
	"bytes"
	"context"
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

// runCell runs one cell to completion on eng. stride 0 runs it with no
// context, in one slice; otherwise it runs under a live cancellable
// context polled every stride retired instructions.
func runCell(t *testing.T, source string, h core.Hardening, sys core.SystemKind, eng core.Engine, stride uint64) capture {
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
	cfg.CancelEvery = stride
	machine := kernel.NewSystem(cfg)
	p, err := machine.Spawn(img)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	var res kernel.RunResult
	if stride == 0 {
		res, err = machine.Run(p)
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		res, err = machine.RunContext(ctx, p)
		cancel()
	}
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
// wrong system) must match too. The block engine also runs each cell
// sliced, as every served request is: under a live context polled at a
// stride that ends inside blocks at varying offsets, and at the default
// stride.
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

	runs := []struct {
		eng    core.Engine
		stride uint64
	}{
		{core.EngineFast, 0},
		{core.EngineBlocks, 0},
		{core.EngineBlocks, 997},
		{core.EngineBlocks, kernel.DefaultCancelEvery},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			interp := runCell(t, c.src, c.h, c.sys, core.EngineInterp, 0)
			for _, r := range runs {
				got := runCell(t, c.src, c.h, c.sys, r.eng, r.stride)
				eng := r.eng.String()
				if r.stride != 0 {
					eng = fmt.Sprintf("%s/stride %d", eng, r.stride)
				}
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
