// Runner: the concurrent measurement engine behind the experiment
// drivers and the HTTP service. Every (source, hardening, system) cell
// the evaluation needs is measured exactly once — images are compiled
// once per (source, hardening) and shared read-only across systems,
// and cells shared between experiments (the unhardened full-system
// runs are the baseline of every figure *and* a column of the Section
// V-B table) are deduplicated by memoization. Cells are warmed by a
// bounded worker pool; the assembly of tables and figures stays
// serial, so results, orderings and error messages are identical to a
// serial run regardless of completion order.
//
// Both memos are retain.Memo: single-flight, bounded at 1024 entries
// in FIFO order. An evaluation report needs 50 images and 72 cells, so
// it never evicts; a service fed endlessly many sources recompiles an
// evicted one, deterministically, to the same image. Measurement is
// context-aware: a cell whose leader is cancelled mid-run is not kept
// (a dead tenant must not poison the cache for live ones), and waiters
// whose own context is still live simply re-run the cell.
package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"roload/internal/asm"
	"roload/internal/core"
	"roload/internal/retain"
	"roload/internal/schema"
	"roload/internal/spec"
)

type imageKey struct {
	src string
	h   core.Hardening
}

// built is one compilation's outcome, compile errors included.
type built struct {
	img *asm.Image
	err error
}

type measureKey struct {
	src string
	h   core.Hardening
	sys core.SystemKind
}

// measured is one cell's outcome.
type measured struct {
	m   core.Measurement
	err error
}

// Runner measures experiment cells with a bounded worker pool and
// memoizes both compiled images and measurements, each in a
// retain.Memo bounded at 1024 entries. The zero value is not usable;
// call NewRunner. A Runner is safe for concurrent use — including by
// concurrent HTTP requests sharing one server-wide instance.
type Runner struct {
	// NoFastPath forwards to every simulator instance (see
	// cpu.Config.NoFastPath). Set before the first measurement.
	NoFastPath bool

	parallel int
	images   *retain.Memo[imageKey, built]
	meas     *retain.Memo[measureKey, measured]
}

// NewRunner returns a Runner running up to parallel cells at once;
// parallel <= 0 selects GOMAXPROCS.
func NewRunner(parallel int) *Runner {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		parallel: parallel,
		images:   retain.NewMemo[imageKey, built](),
		meas:     retain.NewMemo[measureKey, measured](),
	}
}

// ImageCache snapshots the image cache (service /metrics).
func (r *Runner) ImageCache() schema.CacheMetrics { return r.images.Metrics() }

// Image compiles src under h, once per (src, h) while the image stays
// cached; concurrent callers share the result. Images are immutable
// after assembly, so sharing them across simulator instances is safe.
// Compilation is quick and deterministic, so it deliberately takes no
// context: once started it always completes, and an evicted image
// recompiles to the same bytes.
func (r *Runner) Image(src string, h core.Hardening) (*asm.Image, error) {
	img, _, err := r.CachedImage(src, h)
	return img, err
}

// CachedImage is Image plus the cache verdict: hit reports whether the
// image was already compiled (true) or this call compiled it (false).
// The HTTP service's batch endpoint uses the verdict to prove its
// compile-exactly-once contract.
func (r *Runner) CachedImage(src string, h core.Hardening) (img *asm.Image, hit bool, err error) {
	b, led, _ := r.images.Do(context.Background(), imageKey{src, h}, func() (built, bool) {
		img, _, err := core.Build(src, h)
		return built{img, err}, true
	})
	return b.img, !led, b.err
}

// ctxErr reports whether err stems from context cancellation or an
// expired deadline (including kernel.CanceledError wrappers).
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Measure builds (via the image cache) and runs one cell, once per
// (src, h, sys); concurrent and repeated callers share the result.
// A cell cancelled mid-run is not kept, so a later caller with a live
// context measures it afresh; waiters bail out on their own context
// without disturbing the leader.
func (r *Runner) Measure(ctx context.Context, src string, h core.Hardening, sys core.SystemKind) (core.Measurement, error) {
	res, _, err := r.meas.Do(ctx, measureKey{src, h, sys}, func() (measured, bool) {
		m, err := r.measureCell(ctx, src, h, sys)
		return measured{m, err}, !ctxErr(err)
	})
	if err != nil {
		return core.Measurement{}, err
	}
	return res.m, res.err
}

func (r *Runner) measureCell(ctx context.Context, src string, h core.Hardening, sys core.SystemKind) (core.Measurement, error) {
	img, err := r.Image(src, h)
	if err != nil {
		return core.Measurement{}, err
	}
	return core.MeasureImage(ctx, img, h, sys, core.RunOptions{
		MaxSteps:   maxSteps,
		NoFastPath: r.NoFastPath,
	})
}

// forEach runs fn(0..n-1) on the worker pool. All indices run even if
// some fail; the returned error is the lowest-index failure — the one
// serial execution would have surfaced first — so the outcome is
// deterministic regardless of completion order.
func (r *Runner) forEach(n int, fn func(int) error) error {
	return ForEach(r.parallel, n, fn)
}

// ForEach runs fn(0..n-1) across at most workers goroutines. All
// indices run even if some fail; the returned error is the lowest-index
// failure — the one serial execution would have surfaced first — so the
// outcome is deterministic regardless of completion order. It is the
// worker pool behind Runner and the replica driver of the redundant
// supervisor.
func ForEach(workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warm concurrently populates the measurement memo for a set of cells.
// Errors are deliberately swallowed: they are memoized, and the serial
// assembly that follows re-reads the memo and reports the same error a
// serial run would, in the same order and wording. (Cancellation is
// the exception — cancelled cells are evicted, and the serial re-read
// surfaces the caller's own context error.)
func (r *Runner) warm(ctx context.Context, cells []measureKey) {
	r.forEach(len(cells), func(i int) error {
		r.Measure(ctx, cells[i].src, cells[i].h, cells[i].sys)
		return nil
	})
}

// measureOverheads is the Runner-backed engine of Figures 3-5 and the
// RetGuard extension: each workload unhardened and under each scheme
// on the fully modified system.
func (r *Runner) measureOverheads(ctx context.Context, ws []spec.Workload, schemes []core.Hardening, s Scale) ([]OverheadPoint, error) {
	var cells []measureKey
	for _, w := range ws {
		source := src(w, s)
		cells = append(cells, measureKey{source, core.HardenNone, core.SysFull})
		for _, h := range schemes {
			cells = append(cells, measureKey{source, h, core.SysFull})
		}
	}
	r.warm(ctx, cells)

	var out []OverheadPoint
	for _, w := range ws {
		source := src(w, s)
		base, err := r.Measure(ctx, source, core.HardenNone, core.SysFull)
		if err != nil {
			return nil, fmt.Errorf("eval: %s baseline: %w", w.Name, err)
		}
		if !base.Result.Exited {
			return nil, fmt.Errorf("eval: %s baseline killed by %v", w.Name, base.Result.Signal)
		}
		for _, h := range schemes {
			m, err := r.Measure(ctx, source, h, core.SysFull)
			if err != nil {
				return nil, fmt.Errorf("eval: %s under %v: %w", w.Name, h, err)
			}
			if !m.Result.Exited {
				return nil, fmt.Errorf("eval: %s under %v killed by %v", w.Name, h, m.Result.Signal)
			}
			if string(m.Result.Stdout) != string(base.Result.Stdout) {
				return nil, fmt.Errorf("eval: %s under %v produced different output", w.Name, h)
			}
			rt, mem := core.Overhead(base, m)
			out = append(out, OverheadPoint{
				Benchmark:  w.Name,
				Scheme:     h,
				RuntimePct: rt,
				MemPct:     mem,
				BaseCycles: base.Result.Cycles,
				Cycles:     m.Result.Cycles,
				BaseMemKiB: base.Result.MemPeakKiB,
				MemKiB:     m.Result.MemPeakKiB,
			})
		}
	}
	return out, nil
}

// Fig3 measures VCall and VTint on the three C++-style workloads.
func (r *Runner) Fig3(ctx context.Context, s Scale) ([]OverheadPoint, error) {
	return r.measureOverheads(ctx, spec.CXX(), []core.Hardening{core.HardenVCall, core.HardenVTint}, s)
}

// Fig4And5 measures ICall and CFI on all eleven workloads.
func (r *Runner) Fig4And5(ctx context.Context, s Scale) ([]OverheadPoint, error) {
	return r.measureOverheads(ctx, spec.Workloads(), []core.Hardening{core.HardenICall, core.HardenCFI}, s)
}

// ExtensionRetGuard measures the backward-edge extension on every
// workload.
func (r *Runner) ExtensionRetGuard(ctx context.Context, s Scale) ([]OverheadPoint, error) {
	return r.measureOverheads(ctx, spec.Workloads(), []core.Hardening{core.HardenRetGuard}, s)
}

// SystemOverhead reproduces Section V-B: every unhardened workload on
// the baseline, processor-modified and processor+kernel-modified
// systems.
func (r *Runner) SystemOverhead(ctx context.Context, s Scale) ([]SysOverheadRow, error) {
	systems := []core.SystemKind{core.SysBaseline, core.SysProcessorOnly, core.SysFull}
	var cells []measureKey
	for _, w := range spec.Workloads() {
		source := src(w, s)
		for _, sys := range systems {
			cells = append(cells, measureKey{source, core.HardenNone, sys})
		}
	}
	r.warm(ctx, cells)

	var out []SysOverheadRow
	for _, w := range spec.Workloads() {
		source := src(w, s)
		row := SysOverheadRow{Benchmark: w.Name}
		var ref []byte
		for i, sys := range systems {
			m, err := r.Measure(ctx, source, core.HardenNone, sys)
			if err != nil {
				return nil, fmt.Errorf("eval: %s on %v: %w", w.Name, sys, err)
			}
			if !m.Result.Exited {
				return nil, fmt.Errorf("eval: %s on %v killed by %v", w.Name, sys, m.Result.Signal)
			}
			switch i {
			case 0:
				row.BaseCycles, row.BaseMemKiB = m.Result.Cycles, m.Result.MemPeakKiB
				ref = m.Result.Stdout
			case 1:
				row.ProcCycles, row.ProcMemKiB = m.Result.Cycles, m.Result.MemPeakKiB
			case 2:
				row.FullCycles, row.FullMemKiB = m.Result.Cycles, m.Result.MemPeakKiB
			}
			if i > 0 && string(m.Result.Stdout) != string(ref) {
				return nil, fmt.Errorf("eval: %s output differs across systems", w.Name)
			}
		}
		out = append(out, row)
	}
	return out, nil
}
