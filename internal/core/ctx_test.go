package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"roload/internal/cpu"
	"roload/internal/kernel"
)

const spinProg = `
func main() int {
	var x int = 1;
	while (x > 0) { x = x + 1; }
	return 0;
}
`

// TestRunWithDeadline: a run that cannot finish before its deadline is
// cancelled cooperatively and reports *kernel.CanceledError alongside
// a partial result that has made progress.
func TestRunWithDeadline(t *testing.T) {
	img, _, err := Build(spinProg, HardenNone)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, _, err := RunWith(ctx, img, SysFull, RunOptions{})
	elapsed := time.Since(start)
	var canceled *kernel.CanceledError
	if !errors.As(err, &canceled) {
		t.Fatalf("err = %v, want *kernel.CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err %v does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if res.Instret == 0 {
		t.Error("partial result shows no progress")
	}
	if res.Exited {
		t.Error("cancelled run reports a clean exit")
	}
}

// TestRunWithStepLimit: an exhausted instruction budget is the typed
// *kernel.StepLimitError (message naming the budget), with a partial
// result.
func TestRunWithStepLimit(t *testing.T) {
	img, _, err := Build(spinProg, HardenNone)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunWith(context.Background(), img, SysFull, RunOptions{MaxSteps: 20_000})
	var limit *kernel.StepLimitError
	if !errors.As(err, &limit) {
		t.Fatalf("err = %v, want *kernel.StepLimitError", err)
	}
	if limit.Limit != 20_000 {
		t.Errorf("limit = %d", limit.Limit)
	}
	if res.Instret == 0 {
		t.Error("partial result shows no progress")
	}
}

// TestCancellationPreservesObservables: the context machinery must
// never change the simulated observables of a run that completes —
// whatever the poll stride, and whether or not a (never-fired) ctx is
// attached. The whole RunResult and the final core state (registers,
// counters, TLB and cache contents) must match the unpolled run's.
// This is the DESIGN.md cancellation invariant.
func TestCancellationPreservesObservables(t *testing.T) {
	img, _, err := Build(prog, HardenICall)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, stride uint64) (kernel.RunResult, cpu.State) {
		t.Helper()
		cfg := SysFull.Config()
		cfg.MaxSteps, cfg.CancelEvery = 10_000_000, stride
		machine := kernel.NewSystem(cfg)
		p, err := machine.Spawn(img)
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.RunContext(ctx, p)
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		return res, machine.CPU().State()
	}
	base, baseState := run(context.Background(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, stride := range []uint64{1, 7, 64, 997, 100_000} {
		res, state := run(ctx, stride)
		if !reflect.DeepEqual(res, base) {
			t.Errorf("stride %d changed the run result: %+v vs %+v", stride, res, base)
		}
		if !reflect.DeepEqual(state, baseState) {
			t.Errorf("stride %d changed the final core state", stride)
		}
	}
	// RunWith threads the stride through to the same kernel run.
	res, _, err := RunWith(ctx, img, SysFull, RunOptions{MaxSteps: 10_000_000, CancelEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, base) {
		t.Errorf("RunWith changed the run result: %+v vs %+v", res, base)
	}
}

// TestCompileTextMatchesBuild: CompileText's assembly (the CLI and
// service compile path) assembles to the same image Build produces.
func TestCompileTextMatchesBuild(t *testing.T) {
	text, err := CompileText(prog, CompileOptions{Harden: HardenICall})
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty assembly")
	}
	dump, err := CompileText(prog, CompileOptions{Harden: HardenICall, Dump: true})
	if err != nil {
		t.Fatal(err)
	}
	if dump == text {
		t.Error("dump output identical to assembly output")
	}
	if _, err := CompileText("not minic", CompileOptions{}); err == nil {
		t.Error("bad source accepted")
	}
}
