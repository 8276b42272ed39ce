package perf

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workRoot holds every file a run writes, relative to the directory the
// benchmark runs in (the repository root).
const workRoot = ".bench_build/roload-perf"

// setupRepeats is how many times a run sets its workload up: setup_s is
// the median.
const setupRepeats = 15

// childTimeout bounds one workload child, so a run always ends.
const childTimeout = 170 * time.Second

// Main runs the benchmark with the given command-line arguments and
// returns the process exit code.
func Main(args []string) int {
	fs := flag.NewFlagSet("roload-perf", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (2 is held out for confirming claims)")
	seconds := fs.Int("seconds", 20, "measured seconds per workload run")
	traced := fs.Int("trace", 0, "1: also re-run each workload traced, print its per-layer metrics and the tracing overhead, and write trace files to -trace-dir")
	traceDir := fs.String("trace-dir", filepath.Join(workRoot, "trace"), "where a traced run writes <workload>.trace.json and <workload>.layers.json")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...; prints each metric's median and quartiles")
	child := fs.String("child", "", "(internal) run one workload in this process")
	setupOnly := fs.Bool("setup-only", false, "(internal) with -child: exit once set up")
	childTraced := fs.Bool("traced", false, "(internal) with -child: record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "roload-perf: -seconds and -repeat must be positive and -trace 0 or 1")
		return 2
	}
	if *child != "" {
		return runChild(*child, &env{seed: *seed, seconds: *seconds, warm: warmUp, root: ".", traceDir: *traceDir}, *setupOnly, *childTraced)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "roload-perf: unknown workload %q (known: %s, all)\n", *name, workloadNames())
		return 2
	}
	p := &parent{seconds: *seconds, trace: *traced == 1, traceDir: *traceDir}
	samples := make(map[string][]float64)
	ok := true
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			vals, good := p.run(w.name, *seed+int64(r))
			ok = ok && good
			for _, m := range endToEnd {
				if v, found := vals[m.Name]; found {
					samples[w.name+" "+m.Name] = append(samples[w.name+" "+m.Name], v)
				}
			}
		}
	}
	if *repeat > 1 {
		for _, w := range selected {
			for _, m := range endToEnd {
				xs := samples[w.name+" "+m.Name]
				q1, q3 := quartiles(xs)
				fmt.Printf("%s %s median %s %s q1 %s q3 %s spread %.4f (n=%d)\n", w.name, m.Name,
					num(median(xs)), m.Unit, num(q1), num(q3), spread(xs), len(xs))
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// parent runs workloads in child processes and prints their results.
type parent struct {
	seconds  int
	trace    bool
	traceDir string
}

// run runs one workload at one seed: setupRepeats set-ups (the last of
// which goes on to run the workload untraced), then, when tracing, a
// traced run. It prints every metric, then the one-line JSON result,
// and returns the end-to-end values.
func (p *parent) run(name string, seed int64) (map[string]float64, bool) {
	base := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace-dir", p.traceDir}
	var setups []float64
	var res *result
	var err error
	for i := 0; i < setupRepeats && err == nil; i++ {
		args := base
		if i < setupRepeats-1 {
			args = append(args[:len(args):len(args)], "-setup-only")
		}
		var d time.Duration
		if d, res, err = spawn(args); err == nil {
			setups = append(setups, d.Seconds())
		}
	}
	if err != nil {
		res = &result{Workload: name, Problems: []string{err.Error()}}
	} else {
		res.Metrics = append([]metricValue{{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)}}, res.Metrics...)
	}
	printResult(res)
	vals := make(map[string]float64)
	for _, m := range res.Metrics {
		vals[m.Name] = m.Value
	}
	final := resultLine(res, endToEnd, res.Metrics)
	if p.trace {
		tr := &result{Workload: name, Problems: []string{"not traced: the untraced run failed"}}
		if res.Correct {
			if _, tr, err = spawn(append(base[:len(base):len(base)], "-traced")); tr == nil {
				tr = &result{Workload: name, Problems: []string{fmt.Sprintf("traced run: no result (%v)", err)}}
			}
		}
		printResult(tr)
		for _, m := range tr.Metrics {
			if v, ok := vals[m.Name]; ok {
				fmt.Printf("%s overhead %s %s %s\n", name, m.Name, num(m.Value-v), m.Unit)
			}
		}
		tr.Attempted += res.Attempted
		tr.Failed += res.Failed
		final = resultLine(tr, perLayer, tr.Layers)
		res = tr
	}
	fmt.Println(final)
	return vals, res.Correct
}

// printResult prints one child's metrics, one per line, as
// "<workload> <metric> <value> <unit> (n=<samples>)", then its failed
// checks.
func printResult(r *result) {
	for _, m := range append(r.Metrics, r.Layers...) {
		fmt.Printf("%s %s %s %s (n=%d)\n", r.Workload, m.Name, num(m.Value), m.Unit, m.N)
	}
	fmt.Printf("%s ops %d\n%s failed_ops %d\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, pr := range r.Problems {
		fmt.Fprintf(os.Stderr, "roload-perf: %s: %s\n", r.Workload, pr)
	}
}

// resultLine renders the one-line JSON result: correctness, counts,
// and the value of every metric in want (a metric the run did not
// produce makes the result incorrect).
func resultLine(r *result, want []metric, have []metricValue) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	for _, m := range want {
		for _, h := range have {
			if h.Name == m.Name {
				out.Metrics[m.Name] = value{h.Value, m.Unit}
			}
		}
		if _, ok := out.Metrics[m.Name]; !ok {
			out.Correct = false
		}
	}
	b, _ := json.Marshal(out) //nolint:errcheck // plain values always marshal
	return string(b)
}

// spawn runs one workload child. It returns the time from starting the
// process until the child reported its workload set up, and the child's
// result (nil for a set-up-only child).
func spawn(args []string) (time.Duration, *result, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 16<<20)
	var setup time.Duration
	var res *result
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == readyLine {
			setup = time.Since(start)
			continue
		}
		res = &result{}
		if err := json.Unmarshal(line, res); err != nil {
			res = nil
		}
	}
	io.Copy(io.Discard, stdout) //nolint:errcheck // drain so Wait can reap the child
	werr := cmd.Wait()
	switch {
	case setup == 0:
		return 0, nil, fmt.Errorf("child %v never set up: %v", args, werr)
	case res == nil && werr != nil:
		return 0, nil, fmt.Errorf("child %v: %v", args, werr)
	case res == nil && !slices.Contains(args, "-setup-only"):
		return 0, nil, fmt.Errorf("child %v reported no result", args)
	}
	return setup, res, nil
}

// readyLine is what a child prints once its workload is set up.
const readyLine = "ready"

// runChild runs one workload in this process: set up, report ready,
// drive, report the result as one JSON line.
func runChild(name string, e *env, setupOnly, traced bool) int {
	w, ok := lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "roload-perf: unknown workload %q\n", name)
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "roload-perf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "roload-perf: %v\n", err)
		return 1
	}
	e.dir = dir
	if traced {
		e.tr = newTracer()
	}
	d, err := w.setup(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roload-perf: %s: set-up: %v\n", name, err)
		return 1
	}
	fmt.Println(readyLine)
	if setupOnly {
		d.close()
		os.RemoveAll(dir)
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-10*time.Second)
	res := d.drive(ctx)
	cancel()
	d.close()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "roload-perf: %s: checks failed; logs kept in %s\n", name, dir)
		return 1
	}
	os.RemoveAll(dir)
	return 0
}

// resetPeakRSS restarts this process's peak-resident-set counter
// (VmHWM) from the current resident set, so peakRSSMiB reports the peak
// of the work that follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads this process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
