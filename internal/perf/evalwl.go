package perf

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"roload/internal/cli"
	"roload/internal/core"
	"roload/internal/eval"
	"roload/internal/schema"
	"roload/internal/spec"
)

// evalGolden is the evaluation report at test scale without table1,
// which counts this repository's source lines and so changes with
// every change. Regenerate it with `go test -run TestEvalGolden
// -update` in this directory.
//
//go:embed testdata/eval.golden.json
var evalGolden []byte

// evalScale is the evaluation's input size. A ref-scale report takes
// ~30 s on a 2-vCPU host: one sample per run, as noisy as the host. A
// test-scale report takes ~1.5 s, so a run measures a median over
// many.
const evalScale = eval.ScaleTest

// evalRun repeats the paper's evaluation: each report is the call
// `roload-bench -json -scale test` makes, on a fresh Runner, so no
// cache survives from one report to the next.
type evalRun struct {
	env    *env
	runner *eval.Runner
}

func setupEval(e *env) (instance, error) {
	return &evalRun{env: e, runner: eval.NewRunner(0)}, nil
}

func (r *evalRun) close() {}

// goldenReport renders rep the way the golden file stores it.
func goldenReport(rep *eval.Report) ([]byte, error) {
	cp := *rep
	cp.Table1 = nil
	b, err := json.MarshalIndent(&cp, "", "  ")
	return append(b, '\n'), err
}

// checkReport compares a report with the golden byte for byte, then
// checks the evaluation's shapes (DESIGN §4), so a wrongly regenerated
// golden cannot pass either.
func checkReport(rep *eval.Report) error {
	got, err := goldenReport(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, evalGolden) {
		return fmt.Errorf("report differs from testdata/eval.golden.json")
	}
	return reportShapes(rep)
}

func reportShapes(rep *eval.Report) error {
	avg := func(es []schema.OverheadEntry, scheme string) float64 {
		sum, n := 0.0, 0
		for _, e := range es {
			if e.Scheme == scheme {
				sum += e.RuntimePct
				n++
			}
		}
		return sum / float64(max(n, 1))
	}
	if v, t := avg(rep.Fig3, "VCall"), avg(rep.Fig3, "VTint"); v >= t {
		return fmt.Errorf("VCall overhead %.3f%% not below VTint %.3f%%", v, t)
	}
	if i, c := avg(rep.Fig4, "ICall"), avg(rep.Fig4, "CFI"); i >= c {
		return fmt.Errorf("ICall overhead %.3f%% not below CFI %.3f%%", i, c)
	}
	for _, row := range rep.SysOverhead {
		if row.ProcPct > 0.1 || row.ProcPct < -0.1 || row.FullPct > 0.1 || row.FullPct < -0.1 {
			return fmt.Errorf("%s: system overhead %.3f%%/%.3f%%, want ≈ 0", row.Benchmark, row.ProcPct, row.FullPct)
		}
	}
	blocked := make(map[string]bool)
	for _, e := range rep.Security {
		if e.Covered && e.Hijacked {
			return fmt.Errorf("%s hijacked %s, which covers it", e.Scenario, e.Scheme)
		}
		h, err := cli.ParseHardening(strings.ToLower(e.Scheme))
		if err != nil {
			return err
		}
		if h.NeedsROLoad() && e.Covered {
			blocked[e.Scenario] = true
		}
	}
	hijacks := 0
	for _, e := range rep.Security {
		if e.Scheme == "none" && e.Hijacked {
			hijacks++
			if !blocked[e.Scenario] {
				return fmt.Errorf("%s hijacks the unhardened program and no ROLoad scheme blocks it", e.Scenario)
			}
		}
	}
	if hijacks == 0 {
		return fmt.Errorf("no attack hijacks the unhardened program")
	}
	return nil
}

// report runs one whole evaluation and checks it.
func (r *evalRun) report(ctx context.Context) (time.Duration, *eval.Report, error) {
	runner := r.runner
	r.runner = nil
	if runner == nil {
		runner = eval.NewRunner(0)
	}
	t0 := time.Now()
	rep, err := runner.BuildReport(ctx, evalScale, r.env.root)
	wall := time.Since(t0)
	if err != nil {
		return wall, nil, err
	}
	return wall, rep, checkReport(rep)
}

func (r *evalRun) drive(ctx context.Context) *result {
	res := &result{Workload: "eval", Correct: true}
	var walls, peaks []float64
	var last *eval.Report
	for i, phase := range []time.Duration{r.env.warm, 2 * r.env.phase()} {
		measured := i == 1
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < phase; n++ {
			// Each report's peak comes from garbage-collector timing as
			// much as from the evaluation, so rss_peak_mb is the median
			// of the per-report peaks, not their maximum.
			if err := resetPeakRSS(); err != nil {
				res.problem("resetting the peak RSS: %v", err)
				return res
			}
			wall, rep, err := r.report(ctx)
			peak := peakRSSMiB()
			res.Attempted++
			if err != nil {
				res.Failed++
				res.problem("report %d: %v", res.Attempted, err)
				if ctx.Err() != nil {
					return res
				}
				continue
			}
			last = rep
			if measured {
				walls = append(walls, wall.Seconds())
				peaks = append(peaks, peak)
			}
		}
		if measured {
			res.add(
				metricValue{Name: "eval_wall_s", Unit: "s", Value: median(walls), N: len(walls)},
				metricValue{Name: "p50_ms", Unit: "ms", Value: 1e3 * median(walls), N: len(walls)},
				metricValue{Name: "capacity_rps", Unit: "1/s", Value: float64(len(walls)) / time.Since(start).Seconds(), N: len(walls)},
				metricValue{Name: "rss_peak_mb", Unit: "MiB", Value: median(peaks), N: len(peaks)},
			)
		}
	}
	if r.env.tr != nil && last != nil {
		r.traceLayers(ctx, res, last)
	}
	return res
}

// reportCells lists every deduplicated simulation behind a report's
// figures and system-overhead table, each with the cycle count the
// report holds for it.
func reportCells(rep *eval.Report) ([]cell, []uint64, error) {
	var cells []cell
	var cycles []uint64
	seen := make(map[cell]bool)
	add := func(bench string, h core.Hardening, sys core.SystemKind, cyc uint64) error {
		w, ok := spec.ByName(bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", bench)
		}
		c := cell{src: w.TestSource(), h: h, sys: sys}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
			cycles = append(cycles, cyc)
		}
		return nil
	}
	for _, row := range rep.SysOverhead {
		for i, sys := range []core.SystemKind{core.SysBaseline, core.SysProcessorOnly, core.SysFull} {
			if err := add(row.Benchmark, core.HardenNone, sys, []uint64{row.BaseCycles, row.ProcCycles, row.FullCycles}[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, fig := range [][]schema.OverheadEntry{rep.Fig3, rep.Fig4, rep.RetGuard} {
		for _, e := range fig {
			h, err := cli.ParseHardening(strings.ToLower(e.Scheme))
			if err != nil {
				return nil, nil, err
			}
			if err := add(e.Benchmark, core.HardenNone, core.SysFull, e.BaseCycles); err != nil {
				return nil, nil, err
			}
			if err := add(e.Benchmark, h, core.SysFull, e.Cycles); err != nil {
				return nil, nil, err
			}
		}
	}
	return cells, cycles, nil
}

// traceLayers re-runs every cell of the evaluation through the layer
// calls on nproc workers, checks each against the report, and adds the
// per-layer metrics and an engine ablation over the unhardened
// programs.
func (r *evalRun) traceLayers(ctx context.Context, res *result, rep *eval.Report) {
	cells, cycles, err := reportCells(rep)
	if err != nil {
		res.problem("report cells: %v", err)
		return
	}
	pass := runLayerPass(ctx, cells, runtime.GOMAXPROCS(0), r.env.tr.spans())
	if err := pass.err(); err != nil {
		res.problem("layer pass: %v", err)
		return
	}
	var plain []cell
	for i, c := range cells {
		if pass.runs[i].Cycles != cycles[i] {
			res.problem("layer pass: cell %d ran %d cycles, the report says %d", i, pass.runs[i].Cycles, cycles[i])
		}
		if c.h == core.HardenNone && c.sys == core.SysFull {
			plain = append(plain, c)
		}
	}
	res.Layers = append(res.Layers, pass.metrics()...)
	res.Layers = append(res.Layers, pass.totals()...)
	mips, err := engineAblation(ctx, pass, plain, r.env.tr.spans())
	if err != nil {
		res.problem("engine ablation: %v", err)
	}
	res.Layers = append(res.Layers, mips...)
	if err := writeTraceFiles(r.env, "eval", r.env.tr.doc("eval"), res.Layers); err != nil {
		res.problem("writing trace files: %v", err)
	}
}
