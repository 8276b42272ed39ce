package perf

import (
	"context"
	"fmt"
	"time"
)

// metric describes one number the benchmark reports.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports from its untraced
// run: the numbers BENCHMARK.json bounds. Each is defined for every
// workload and is never 0.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"capacity_rps", "1/s", "higher"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the per-layer metrics every workload reports from its
// traced run. The serve-stack layers (client, gateway, service, store)
// report more, but only for the serve workloads; those appear in the
// traced run's output and layers file, not here.
var perLayer = []metric{
	{"cc.compile_p50_ms", "ms", "lower"},
	{"harden.apply_p50_ms", "ms", "lower"},
	{"asm.assemble_p50_ms", "ms", "lower"},
	{"kernel.spawn_p50_ms", "ms", "lower"},
	{"cpu.ns_per_inst", "ns", "lower"},
	{"cpu.exec_s_total", "s", "lower"},
	{"cpu.blocks_mips", "MIPS", "higher"},
	{"cpu.fast_mips", "MIPS", "higher"},
	{"cpu.interp_mips", "MIPS", "higher"},
	{"eval.pool_util_pct", "%", "higher"},
	{"sim.instret", "count", "lower"},
	{"sim.cycles", "count", "lower"},
	{"mmu.dtlb_misses", "count", "lower"},
	{"mmu.page_walks", "count", "lower"},
	{"cache.dmisses", "count", "lower"},
	{"cpu.roloads", "count", "lower"},
}

// workload is one seeded input set the benchmark runs, each in its own
// child process.
type workload struct {
	name string
	// setup builds what the workload drives — the span setup_s times —
	// and returns the instance that runs it.
	setup func(env *env) (instance, error)
}

// instance runs one set-up workload and then tears the set-up down.
type instance interface {
	drive(ctx context.Context) *result
	close()
}

// workloads is the benchmark's registry, in run order.
var workloads = []workload{
	{name: "eval", setup: setupEval},
	{name: "serve-small", setup: serveSmall.setup},
	{name: "serve-mix", setup: serveMix.setup},
	{name: "serve-durable", setup: serveDurable.setup},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload's child process runs with.
type env struct {
	seed    int64
	seconds int
	// warm is the unmeasured warm-up (warmUp outside tests).
	warm time.Duration
	// root is the repository root, whose sources the evaluation's
	// table1 counts; dir holds the run's stores and logs.
	root string
	dir  string
	// tr is nil for an untraced run; traceDir receives a traced run's
	// files.
	tr       *tracer
	traceDir string
}

// phase returns the length of one measured phase: half of -seconds.
func (e *env) phase() time.Duration {
	return time.Duration(e.seconds) * time.Second / 2
}

// warmUp is the unmeasured load every workload runs first, so caches
// fill and lazy set-up finishes before timing starts.
const warmUp = 2 * time.Second

// metricValue is one measured number with its sample count.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is what a workload's child process reports to the parent.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Metrics are the end-to-end and informational numbers; Layers the
	// traced run's per-layer numbers.
	Metrics []metricValue `json:"metrics"`
	Layers  []metricValue `json:"layers,omitempty"`
}

// problem records a failed check; the first few are kept for the
// report.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(m ...metricValue) { r.Metrics = append(r.Metrics, m...) }
