// Package roload_test is the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, plus the ablations
// called out in DESIGN.md. Custom metrics report the quantities the
// paper reports (overhead percentages, LUT/FF counts, Fmax), so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Benchmarks run the workloads at
// test scale to keep iterations tractable; `go run ./cmd/roload-bench`
// runs the reference scale.
package roload_test

import (
	"context"
	"testing"

	"roload/internal/asm"
	"roload/internal/attack"
	"roload/internal/cache"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/core"
	"roload/internal/cpu"
	"roload/internal/eval"
	"roload/internal/hw"
	"roload/internal/kernel"
	"roload/internal/spec"
)

// BenchmarkTable1LoC regenerates Table I: the size of each component.
func BenchmarkTable1LoC(b *testing.B) {
	var rows []eval.LoCRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.TableI(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	for _, r := range rows {
		total += r.Lines
	}
	b.ReportMetric(float64(total), "loc_total")
	for _, r := range rows {
		switch {
		case r.Component[0] == 'R': // processor
			b.ReportMetric(float64(r.Lines), "loc_processor")
		case r.Component[0] == 'K':
			b.ReportMetric(float64(r.Lines), "loc_kernel")
		case r.Component[0] == 'C':
			b.ReportMetric(float64(r.Lines), "loc_compiler")
		}
	}
}

// BenchmarkTable3Hardware regenerates Table III from the structural
// synthesis model: LUT/FF overheads and Fmax with and without ld.ro.
func BenchmarkTable3Hardware(b *testing.B) {
	var r hw.Report
	for i := 0; i < b.N; i++ {
		r = hw.Synthesize(hw.DefaultConfig())
	}
	b.ReportMetric(r.PctLUT(), "core_lut_pct")
	b.ReportMetric(r.PctFF(), "core_ff_pct")
	b.ReportMetric(r.PctSystemLUT(), "sys_lut_pct")
	b.ReportMetric(r.PctSystemFF(), "sys_ff_pct")
	b.ReportMetric(r.TimingROLoad.FmaxMHz, "fmax_mhz")
	b.ReportMetric(r.TimingBase.FmaxMHz-r.TimingROLoad.FmaxMHz, "fmax_drop_mhz")
}

// BenchmarkSystemOverhead regenerates Section V-B: unhardened
// workloads on the baseline vs modified systems (expected: 0%).
func BenchmarkSystemOverhead(b *testing.B) {
	var rows []eval.SysOverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.SystemOverhead(eval.ScaleTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	var proc, full float64
	for _, r := range rows {
		proc += r.ProcPct()
		full += r.FullPct()
	}
	b.ReportMetric(proc/float64(len(rows)), "procmod_overhead_pct")
	b.ReportMetric(full/float64(len(rows)), "fullmod_overhead_pct")
}

// BenchmarkFig3VCall regenerates Figure 3: VCall vs VTint runtime and
// memory overheads on the three C++-style workloads.
func BenchmarkFig3VCall(b *testing.B) {
	var points []eval.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.Fig3(eval.ScaleTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	vcRT, vcMem, _ := eval.Average(points, core.HardenVCall)
	vtRT, vtMem, _ := eval.Average(points, core.HardenVTint)
	b.ReportMetric(vcRT, "vcall_runtime_pct")
	b.ReportMetric(vtRT, "vtint_runtime_pct")
	b.ReportMetric(vcMem, "vcall_mem_pct")
	b.ReportMetric(vtMem, "vtint_mem_pct")
}

// BenchmarkFig4ICall regenerates Figure 4: ICall vs CFI runtime
// overheads on all eleven workloads.
func BenchmarkFig4ICall(b *testing.B) {
	var points []eval.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.Fig4And5(eval.ScaleTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	icRT, _, _ := eval.Average(points, core.HardenICall)
	cfiRT, _, _ := eval.Average(points, core.HardenCFI)
	b.ReportMetric(icRT, "icall_runtime_pct")
	b.ReportMetric(cfiRT, "cfi_runtime_pct")
}

// BenchmarkFig5Memory regenerates Figure 5: ICall vs CFI memory
// overheads on all eleven workloads.
func BenchmarkFig5Memory(b *testing.B) {
	var points []eval.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.Fig4And5(eval.ScaleTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	_, icMem, _ := eval.Average(points, core.HardenICall)
	_, cfiMem, _ := eval.Average(points, core.HardenCFI)
	b.ReportMetric(icMem, "icall_mem_pct")
	b.ReportMetric(cfiMem, "cfi_mem_pct")
}

// BenchmarkSecurityMatrix runs the Section V-C2 attack matrix and
// reports how many attacks each class of scheme stopped.
func BenchmarkSecurityMatrix(b *testing.B) {
	var results []attack.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = attack.MatrixContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	var hijacked, roblocked float64
	for _, r := range results {
		switch r.Outcome {
		case attack.Hijacked:
			hijacked++
		case attack.BlockedROLoad:
			roblocked++
		}
	}
	b.ReportMetric(hijacked, "hijacks")
	b.ReportMetric(roblocked, "roload_blocks")
}

// measure builds src with scheme h and runs it unbounded on the full
// system.
func measure(src string, h core.Hardening) (core.Measurement, error) {
	img, _, err := core.Build(src, h)
	if err != nil {
		return core.Measurement{}, err
	}
	return core.MeasureImage(context.Background(), img, h, core.SysFull, core.RunOptions{})
}

// manyHierarchySource generates a vcall-heavy program with n
// *independent* class hierarchies touched round-robin. Under VCall each
// hierarchy's vtable lands on its own keyed page (n pages); under
// ICall's unified key they share one section — the TLB/cache-locality
// contrast the paper credits for ICall's lower overhead (Section V-C1).
func manyHierarchySource(n, rounds int) string {
	var b []byte
	app := func(s string) { b = append(b, s...) }
	for i := 0; i < n; i++ {
		id := itoa(i)
		app("class K" + id + " { v int; virtual get() int { return this.v + " + id + "; } }\n")
	}
	app("var objs *int;\nfunc main() int {\n")
	app("\tobjs = new int[" + itoa(n) + "];\n")
	app("\tvar ks **int = objs;\n")
	for i := 0; i < n; i++ {
		id := itoa(i)
		app("\tvar o" + id + " *K" + id + " = new K" + id + "; o" + id + ".v = " + id + "; ks[" + id + "] = o" + id + ";\n")
	}
	app("\tvar sum int = 0;\n")
	app("\tfor (var r int = 0; r < " + itoa(rounds) + "; r++) {\n")
	for i := 0; i < n; i++ {
		id := itoa(i)
		app("\t\tvar p" + id + " *K" + id + " = ks[" + id + "]; sum += p" + id + ".get();\n")
	}
	app("\t}\n\tprint_int(sum);\n\treturn sum % 251;\n}\n")
	return string(b)
}

// BenchmarkAblationKeyUnification quantifies the paper's observation
// that ICall's unified vtable key gives better TLB/cache locality than
// VCall's per-hierarchy keys on vcall-heavy code: 48 hierarchies
// overflow the 32-entry D-TLB when every vtable sits on its own keyed
// page.
func BenchmarkAblationKeyUnification(b *testing.B) {
	src := manyHierarchySource(48, 200)
	var perClass, unified uint64
	for i := 0; i < b.N; i++ {
		mc, err := measure(src, core.HardenVCall)
		if err != nil {
			b.Fatal(err)
		}
		mu, err := measure(src, core.HardenICall)
		if err != nil {
			b.Fatal(err)
		}
		perClass = mc.Result.Cycles
		unified = mu.Result.Cycles
	}
	b.ReportMetric(float64(perClass), "cycles_per_class_keys")
	b.ReportMetric(float64(unified), "cycles_unified_key")
	b.ReportMetric(100*(float64(perClass)-float64(unified))/float64(unified), "locality_penalty_pct")
}

// BenchmarkAblationTLBSize sweeps the D-TLB size: the ROLoad key check
// lives in the TLB, so the interesting question is whether a small TLB
// amplifies hardened-code overhead. The many-hierarchy workload makes
// the effect visible (each keyed vtable page consumes a TLB entry).
func BenchmarkAblationTLBSize(b *testing.B) {
	src := manyHierarchySource(24, 100)
	for _, entries := range []int{8, 16, 32, 64} {
		entries := entries
		b.Run(itoa(entries), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				base := runWithTLB(b, src, core.HardenNone, entries)
				hard := runWithTLB(b, src, core.HardenVCall, entries)
				overhead = 100 * (float64(hard) - float64(base)) / float64(base)
			}
			b.ReportMetric(overhead, "vcall_overhead_pct")
		})
	}
}

func runWithTLB(b *testing.B, src string, h core.Hardening, entries int) uint64 {
	b.Helper()
	img, _, err := core.Build(src, h)
	if err != nil {
		b.Fatal(err)
	}
	cfg := kernel.FullSystem()
	cfg.CPU = cpu.Config{
		ITLBEntries: entries,
		DTLBEntries: entries,
		ICache:      cache.DefaultL1(),
		DCache:      cache.DefaultL1(),
	}
	sys := kernel.NewSystem(cfg)
	p, err := sys.Spawn(img)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Exited {
		b.Fatalf("killed by %v", res.Signal)
	}
	return res.Cycles
}

// BenchmarkAblationCompressed measures the code-size effect of the
// RVC compression pass including c.ld.ro (paper Section III-A
// introduces the compressed form "to optimize the program size"):
// hardened xalancbmk is assembled with and without compression and the
// executable byte counts compared.
func BenchmarkAblationCompressed(b *testing.B) {
	w, _ := spec.ByName("483.xalancbmk")
	unit, err := cc.Compile(w.TestSource())
	if err != nil {
		b.Fatal(err)
	}
	if err := harden.Apply(unit, harden.ICall()); err != nil {
		b.Fatal(err)
	}
	var plainSize, smallSize uint64
	for i := 0; i < b.N; i++ {
		plain, err := asm.AssembleLines(unit.Lines, asm.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		opts := asm.DefaultOptions()
		opts.Compress = true
		small, err := asm.AssembleLines(unit.Lines, opts)
		if err != nil {
			b.Fatal(err)
		}
		plainSize = plain.CodeSize()
		smallSize = small.CodeSize()
	}
	b.ReportMetric(float64(plainSize), "code_bytes_plain")
	b.ReportMetric(float64(smallSize), "code_bytes_compressed")
	b.ReportMetric(100*(float64(plainSize)-float64(smallSize))/float64(plainSize), "size_reduction_pct")
}

// BenchmarkExtensionRetGuard measures the backward-edge extension
// (Section IV-C futures): keyed return-site tables cost a few
// instructions per call/return pair; the metric is the runtime
// overhead over the unhardened build on the call-heaviest workloads.
func BenchmarkExtensionRetGuard(b *testing.B) {
	var totalPct float64
	names := []string{"458.sjeng", "403.gcc", "483.xalancbmk"}
	for i := 0; i < b.N; i++ {
		totalPct = 0
		for _, name := range names {
			w, _ := spec.ByName(name)
			src := w.TestSource()
			base, err := measure(src, core.HardenNone)
			if err != nil {
				b.Fatal(err)
			}
			m, err := measure(src, core.HardenRetGuard)
			if err != nil {
				b.Fatal(err)
			}
			if string(m.Result.Stdout) != string(base.Result.Stdout) {
				b.Fatalf("%s: output changed under RetGuard", name)
			}
			rt, _ := core.Overhead(base, m)
			totalPct += rt
		}
	}
	b.ReportMetric(totalPct/float64(len(names)), "retguard_runtime_pct")
}

// BenchmarkAblationSerializedCheck quantifies the design choice of
// running the ROLoad check in parallel with the permission check: the
// serialized alternative costs Fmax (paper Section II-E).
func BenchmarkAblationSerializedCheck(b *testing.B) {
	var par, ser hw.Report
	for i := 0; i < b.N; i++ {
		par = hw.Synthesize(hw.DefaultConfig())
		cfg := hw.DefaultConfig()
		cfg.SerializeCheck = true
		ser = hw.Synthesize(cfg)
	}
	b.ReportMetric(par.TimingROLoad.FmaxMHz, "parallel_fmax_mhz")
	b.ReportMetric(ser.TimingROLoad.FmaxMHz, "serialized_fmax_mhz")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
