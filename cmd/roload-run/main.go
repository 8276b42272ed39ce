// Command roload-run compiles (or assembles) a program, optionally
// hardens it, and executes it on one of the three simulated systems.
//
// Usage:
//
//	roload-run [-system full|proc|baseline] [-harden scheme] [-engine blocks|fast|interp] [-stats] prog.mc
//	roload-run -asm prog.s
//	roload-run -trace out.json -profile - -metrics run.json prog.mc
//	roload-run -checkpoint ck.json -checkpoint-every 100000 prog.mc
//	roload-run -resume ck.json prog.mc
//	roload-run -store DIR -checkpoint store:// -checkpoint-every 100000 prog.mc
//	roload-run -store DIR -resume store://<digest> prog.mc
//	roload-run -fault-seed 7 -fault-count 5 -fault-trace - prog.mc
//	roload-run -redundant 3 -heal -fault-seed 7 -fault-count 2 -heal-report - prog.mc
//
// -engine selects the execution engine (default blocks); all three
// engines produce bit-identical simulated results and differ only in
// host speed.
//
// -sys is an alias of -system. Unknown -system/-harden/-engine values exit 2
// naming the known values (the shared internal/cli contract of every
// tool). Exit status mirrors the simulated process: its exit code, or
// 128 + signal when it was killed.
//
// Checkpointing slices the run into -checkpoint-every-sized chunks and
// atomically rewrites the roload-checkpoint/v1 document at each
// boundary (fsynced, so a checkpoint that exists is durable); -resume
// restarts from the last checkpoint (the program argument must rebuild
// the same image — the checkpoint's digest is verified, and a
// mismatched checkpoint exits 2 naming both digests) and replays
// bit-identically. -fault-count injects seeded roload-fault/v1 faults;
// the plan is a pure function of (image, system, seed, count), so
// re-running with the same seed reproduces the fault trace
// byte-for-byte.
//
// -redundant K runs the image on K replicas under the self-healing
// supervisor: state digests are cross-checked every -sync-every
// retired instructions, divergent replicas are outvoted and (with
// -heal) rolled back to the last agreed checkpoint and replayed.
// Seeded faults then go into replica -fault-replica only, and the
// supervised outcome — stdout, exit status, metrics — is byte-
// identical to a fault-free run. -heal-report writes the
// roload-heal/v1 document.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"roload/internal/asm"
	"roload/internal/cli"
	"roload/internal/core"
	"roload/internal/fault"
	"roload/internal/kernel"
	"roload/internal/obs"
	"roload/internal/redundant"
	"roload/internal/schema"
	"roload/internal/store"
)

func main() {
	systemFlag := cli.SystemFlag{Kind: core.SysFull}
	flag.Var(&systemFlag, "system", "system: baseline, proc, or full")
	flag.Var(&systemFlag, "sys", "alias of -system")
	hardenFlag := cli.HardenFlag{Scheme: core.HardenNone}
	flag.Var(&hardenFlag, "harden", "hardening scheme: none, vcall, vtint, icall, cfi, retguard, full")
	engineFlag := cli.EngineFlag{Engine: core.EngineBlocks}
	flag.Var(&engineFlag, "engine", "execution engine: blocks, fast, or interp (bit-identical simulated results; host speed only)")
	isAsm := flag.Bool("asm", false, "input is assembly, not MiniC")
	optimize := flag.Bool("O", false, "run the peephole optimizer before hardening")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	maxSteps := flag.Uint64("max-steps", 0, "instruction budget (0 = unlimited)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON to this path (- for stdout)")
	traceSize := flag.Int("trace-size", obs.DefaultRingSize, "trace ring capacity in events (oldest are dropped)")
	profilePath := flag.String("profile", "", "write a cycle profile (top functions) to this path (- for stdout)")
	foldedPath := flag.String("folded", "", "write folded stacks (flamegraph input) to this path (- for stdout)")
	metricsPath := flag.String("metrics", "", "write a machine-readable metrics snapshot (JSON) to this path (- for stdout)")
	ckPath := flag.String("checkpoint", "", "rewrite a roload-checkpoint/v1 snapshot at this path at every -checkpoint-every boundary")
	ckEvery := flag.Uint64("checkpoint-every", 0, "checkpoint stride in retired instructions (requires -checkpoint; the -max-steps budget is then enforced at chunk granularity)")
	resumePath := flag.String("resume", "", "resume from a roload-checkpoint/v1 snapshot instead of starting fresh")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for -fault-count's roload-fault/v1 plan")
	faultCount := flag.Int("fault-count", 0, "inject this many seeded faults into the run")
	faultTracePath := flag.String("fault-trace", "", "write the roload-fault/v1 trace (JSON) to this path (- for stdout)")
	redundantK := flag.Int("redundant", 0, "run on this many replicas (odd, >= 3) under the self-healing supervisor")
	heal := flag.Bool("heal", false, "heal outvoted replicas by rollback-replay (requires -redundant; default: quarantine)")
	syncEvery := flag.Uint64("sync-every", 0, "supervisor cross-check stride in retired instructions (0 = default)")
	faultReplica := flag.Int("fault-replica", 0, "replica seeded faults are injected into (requires -redundant)")
	healReportPath := flag.String("heal-report", "", "write the roload-heal/v1 report (JSON) to this path (- for stdout)")
	storeDir := flag.String("store", "", "artifact store directory: enables store:// checkpoint sources and sinks")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: roload-run [-system s] [-harden h] [-asm] [-stats] prog")
		os.Exit(2)
	}
	if (*ckPath != "") != (*ckEvery > 0) {
		fmt.Fprintln(os.Stderr, "roload-run: -checkpoint and -checkpoint-every must be used together")
		os.Exit(2)
	}
	// store:// spellings name artifacts in a -store directory: a
	// checkpoint sink (-checkpoint store://, keyed by state digest) or a
	// resume source (-resume store://<digest>). Either requires -store.
	if (strings.HasPrefix(*ckPath, "store://") || strings.HasPrefix(*resumePath, "store://")) && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "roload-run: store:// checkpoint sources and sinks require -store")
		os.Exit(2)
	}
	var st *store.Store
	if *storeDir != "" {
		var serr error
		if st, serr = store.Open(*storeDir); serr != nil {
			fatal(serr)
		}
	}
	if *resumePath != "" && *faultCount > 0 {
		fmt.Fprintln(os.Stderr, "roload-run: -fault-count cannot be combined with -resume (a resumed run replays the original)")
		os.Exit(2)
	}
	if *faultCount < 0 {
		fmt.Fprintln(os.Stderr, "roload-run: -fault-count must be non-negative")
		os.Exit(2)
	}
	if *redundantK == 0 && (*heal || *syncEvery != 0 || *faultReplica != 0 || *healReportPath != "") {
		fmt.Fprintln(os.Stderr, "roload-run: -heal, -sync-every, -fault-replica and -heal-report require -redundant")
		os.Exit(2)
	}
	if *redundantK != 0 {
		if *redundantK < 3 || *redundantK%2 == 0 {
			fmt.Fprintln(os.Stderr, "roload-run: -redundant must be odd and >= 3")
			os.Exit(2)
		}
		if *ckPath != "" || *resumePath != "" {
			fmt.Fprintln(os.Stderr, "roload-run: -redundant cannot be combined with -checkpoint or -resume (the supervisor owns the checkpoints)")
			os.Exit(2)
		}
		if *tracePath != "" || *profilePath != "" || *foldedPath != "" {
			fmt.Fprintln(os.Stderr, "roload-run: -redundant cannot be combined with probe outputs (-trace, -profile, -folded)")
			os.Exit(2)
		}
		if *faultReplica < 0 || *faultReplica >= *redundantK {
			fmt.Fprintf(os.Stderr, "roload-run: -fault-replica %d out of range [0,%d)\n", *faultReplica, *redundantK)
			os.Exit(2)
		}
	}
	sys := systemFlag.Kind
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	var img *asm.Image
	if *isAsm {
		img, err = asm.Assemble(src, asm.DefaultOptions())
		if err != nil {
			fatal(err)
		}
	} else {
		img, _, err = core.BuildWith(src, core.CompileOptions{Harden: hardenFlag.Scheme, Optimize: *optimize})
		if err != nil {
			fatal(err)
		}
	}

	// Assemble the probe chain from the requested outputs. Each sink
	// is optional; with none requested the probe stays nil and the
	// simulation hot path is untouched.
	syms := core.CodeSymTable(img)
	var ring *obs.Ring
	var prof *obs.Profiler
	if *tracePath != "" {
		ring = obs.NewRing(*traceSize)
	}
	if *profilePath != "" || *foldedPath != "" {
		prof = obs.NewProfiler(syms)
	}
	var probes []obs.Probe
	if ring != nil {
		probes = append(probes, ring)
	}
	if prof != nil {
		probes = append(probes, prof)
	}

	var res kernel.RunResult
	if *redundantK > 0 {
		res = runRedundant(img, sys, redOptions{
			engine:       engineFlag.Engine,
			replicas:     *redundantK,
			syncEvery:    *syncEvery,
			heal:         *heal,
			maxSteps:     *maxSteps,
			faultSeed:    *faultSeed,
			faultCount:   *faultCount,
			faultReplica: *faultReplica,
			reportPath:   *healReportPath,
			tracePath:    *faultTracePath,
		})
	} else if *ckEvery > 0 || *resumePath != "" || *faultCount > 0 {
		res = runAdvanced(img, sys, obs.Combine(probes...), advOptions{
			engine:     engineFlag.Engine,
			maxSteps:   *maxSteps,
			ckPath:     *ckPath,
			ckEvery:    *ckEvery,
			resume:     *resumePath,
			faultSeed:  *faultSeed,
			faultCount: *faultCount,
			tracePath:  *faultTracePath,
			st:         st,
		})
	} else {
		var err error
		res, _, err = core.RunWith(context.Background(), img, sys, engineFlag.Engine.Options(core.RunOptions{
			MaxSteps: *maxSteps,
			Probe:    obs.Combine(probes...),
		}))
		if err != nil {
			fatal(err)
		}
	}
	os.Stdout.Write(res.Stdout)
	if !strings.HasSuffix(string(res.Stdout), "\n") && len(res.Stdout) > 0 {
		fmt.Println()
	}

	if ring != nil {
		writeOutput(*tracePath, func(w io.Writer) error {
			return ring.WriteChromeTrace(w, syms)
		})
		if n := ring.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "roload-run: trace ring dropped %d oldest events (raise -trace-size)\n", n)
		}
	}
	if prof != nil && *profilePath != "" {
		writeOutput(*profilePath, func(w io.Writer) error {
			return prof.WriteTop(w, 30)
		})
	}
	if prof != nil && *foldedPath != "" {
		writeOutput(*foldedPath, prof.WriteFolded)
	}
	if *metricsPath != "" {
		snap := res.Snapshot(sys.String())
		writeOutput(*metricsPath, snap.WriteJSON)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "system:   %v\n", sys)
		fmt.Fprintf(os.Stderr, "cycles:   %d\n", res.Cycles)
		fmt.Fprintf(os.Stderr, "instret:  %d\n", res.Instret)
		fmt.Fprintf(os.Stderr, "memory:   %d KiB peak\n", res.MemPeakKiB)
		fmt.Fprintf(os.Stderr, "loads:    %d (%d via ld.ro)\n", res.CPUStats.Loads, res.CPUStats.ROLoads)
		fmt.Fprintf(os.Stderr, "traps:    %d (%d syscalls, %d MMU faults)\n",
			res.CPUStats.Traps, res.SyscallCnt, res.IMMU.Faults+res.DMMU.Faults)
		fmt.Fprintf(os.Stderr, "I-TLB:    %d hits / %d misses, %d walks (%d mem ops)\n",
			res.IMMU.TLBHits, res.IMMU.TLBMisses, res.IMMU.PageWalks, res.IMMU.WalkMemOps)
		fmt.Fprintf(os.Stderr, "D-TLB:    %d hits / %d misses, %d walks (%d mem ops)\n",
			res.DMMU.TLBHits, res.DMMU.TLBMisses, res.DMMU.PageWalks, res.DMMU.WalkMemOps)
		fmt.Fprintf(os.Stderr, "I-cache:  %d hits / %d misses (%.2f%% miss)\n",
			res.IC.Hits, res.IC.Misses, 100*res.IC.MissRate())
		fmt.Fprintf(os.Stderr, "D-cache:  %d hits / %d misses (%.2f%% miss)\n",
			res.DC.Hits, res.DC.Misses, 100*res.DC.MissRate())
	}
	if res.Exited {
		os.Exit(res.Code & 0xff)
	}
	fmt.Fprintf(os.Stderr, "roload-run: killed by %v at %#x", res.Signal, res.FaultVA)
	if res.ROLoadViolation {
		fmt.Fprintf(os.Stderr, " (ROLoad violation: want key %d, got key %d)",
			res.FaultWantKey, res.FaultGotKey)
	}
	fmt.Fprintln(os.Stderr)
	for _, rec := range res.Audit {
		fmt.Fprintln(os.Stderr, rec.String())
	}
	os.Exit(128 + int(res.Signal))
}

// redOptions parameterize the supervised redundant-execution path.
type redOptions struct {
	engine       core.Engine
	replicas     int
	syncEvery    uint64
	heal         bool
	maxSteps     uint64
	faultSeed    uint64
	faultCount   int
	faultReplica int
	reportPath   string
	tracePath    string
}

// runRedundant executes the image on K replicas under the self-healing
// supervisor, narrating divergences and heals on stderr and writing
// the roload-heal/v1 report (and fault trace) where asked.
func runRedundant(img *asm.Image, sys core.SystemKind, opt redOptions) kernel.RunResult {
	var plan *schema.FaultPlan
	if opt.faultCount > 0 {
		p, err := redundant.Plan(context.Background(), img, sys, opt.faultSeed, opt.faultCount, opt.maxSteps, 0)
		if err != nil {
			fatal(err)
		}
		plan = &p
	}
	engines := make([]core.Engine, opt.replicas)
	for i := range engines {
		engines[i] = opt.engine
	}
	out, err := redundant.Run(context.Background(), img, sys, redundant.Options{
		Engines:      engines,
		Replicas:     opt.replicas,
		SyncEvery:    opt.syncEvery,
		Heal:         opt.heal,
		MaxSteps:     opt.maxSteps,
		Fault:        plan,
		FaultReplica: opt.faultReplica,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "roload-run: "+format+"\n", args...)
		},
	})
	if opt.reportPath != "" {
		writeOutput(opt.reportPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(out.Report)
		})
	}
	if out.Trace != nil && opt.tracePath != "" {
		writeOutput(opt.tracePath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(out.Trace)
		})
	}
	if err != nil {
		fatal(err)
	}
	return out.Run
}

// advOptions parameterize the direct-kernel driving path used when
// checkpointing, resuming, or injecting faults.
type advOptions struct {
	engine     core.Engine
	maxSteps   uint64
	ckPath     string
	ckEvery    uint64
	resume     string
	faultSeed  uint64
	faultCount int
	tracePath  string
	// st is the artifact store behind store:// checkpoint sources and
	// sinks (nil without -store).
	st *store.Store
}

// runAdvanced drives the kernel directly: it restores or spawns the
// process, optionally attaches a seeded fault engine, and runs in
// -checkpoint-every-sized chunks, atomically rewriting the checkpoint
// at each boundary. The chunked drive changes host control flow only —
// by the fast-path invariant the simulated observables are
// bit-identical to one uninterrupted run.
func runAdvanced(img *asm.Image, sys core.SystemKind, probe obs.Probe, opt advOptions) kernel.RunResult {
	cfg := sys.Config()
	eo := opt.engine.Options(core.RunOptions{})
	cfg.CPU.NoFastPath = eo.NoFastPath
	cfg.CPU.NoBlocks = eo.NoBlocks
	switch {
	case opt.ckEvery > 0:
		cfg.MaxSteps = opt.ckEvery
	case opt.maxSteps > 0:
		cfg.MaxSteps = opt.maxSteps
	}

	var machine *kernel.System
	var p *kernel.Process
	var err error
	if opt.resume != "" {
		var raw []byte
		if digest, ok := strings.CutPrefix(opt.resume, "store://"); ok {
			var gerr error
			if raw, gerr = opt.st.Get(schema.CheckpointV1, digest); gerr != nil {
				fatal(fmt.Errorf("checkpoint store://%s: %w", digest, gerr))
			}
		} else {
			var rerr error
			if raw, rerr = os.ReadFile(opt.resume); rerr != nil {
				fatal(rerr)
			}
		}
		var ck schema.Checkpoint
		if jerr := json.Unmarshal(raw, &ck); jerr != nil {
			fatal(fmt.Errorf("decoding checkpoint %s: %w", opt.resume, jerr))
		}
		machine, p, err = kernel.Restore(cfg, img, ck)
		var mismatch *kernel.CheckpointMismatchError
		if errors.As(err, &mismatch) {
			// A mismatched checkpoint is a usage error — the caller named
			// the wrong checkpoint or the wrong program; the message
			// carries both sides of the disagreement (e.g. both digests).
			fmt.Fprintln(os.Stderr, "roload-run:", err)
			os.Exit(2)
		}
	} else {
		machine = kernel.NewSystem(cfg)
		p, err = machine.Spawn(img)
	}
	if err != nil {
		fatal(err)
	}
	if probe != nil {
		machine.SetProbe(probe)
	}

	var eng *fault.Engine
	if opt.faultCount > 0 {
		// A clean profiling run sizes the fault window so faults land
		// inside live code; a budget-bound guest uses the budget itself.
		clean, _, cerr := core.RunWith(context.Background(), img, sys, core.RunOptions{MaxSteps: opt.maxSteps})
		if cerr != nil {
			var limit *kernel.StepLimitError
			if !errors.As(cerr, &limit) {
				fatal(cerr)
			}
		}
		plan, perr := fault.Generate(opt.faultSeed, opt.faultCount, fault.TargetsFromImage(img, clean.Instret))
		if perr != nil {
			fatal(perr)
		}
		if eng, err = fault.Attach(machine, p, plan); err != nil {
			fatal(err)
		}
	}

	var res kernel.RunResult
	var prevDigest string
	for {
		res, err = machine.RunContext(context.Background(), p)
		if err == nil {
			break
		}
		var limit *kernel.StepLimitError
		if !errors.As(err, &limit) || opt.ckEvery == 0 {
			fatal(err)
		}
		if opt.maxSteps > 0 && res.Instret >= opt.maxSteps {
			fatal(err)
		}
		if strings.HasPrefix(opt.ckPath, "store://") {
			prevDigest = writeStoreCheckpoint(opt.st, machine, p, prevDigest)
		} else {
			writeCheckpoint(machine, p, opt.ckPath)
		}
	}

	if eng != nil && opt.tracePath != "" {
		trace := eng.Trace()
		writeOutput(opt.tracePath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(trace)
		})
	}
	return res
}

// writeStoreCheckpoint snapshots the machine into the artifact store,
// keyed by state digest. The newest checkpoint stays pinned (and the
// previous one is released) so GC always keeps the run's most recent
// resume point, and each boundary prints the "store://<digest>" name
// -resume takes. Durability comes from the store's fsync-per-append
// contract — no temp-file dance needed.
func writeStoreCheckpoint(st *store.Store, machine *kernel.System, p *kernel.Process, prev string) string {
	ck, err := kernel.Snapshot(machine, p)
	if err != nil {
		fatal(err)
	}
	raw, err := json.Marshal(ck)
	if err != nil {
		fatal(err)
	}
	digest := ck.StateDigest()
	if _, err := st.Put(schema.CheckpointV1, digest, raw); err != nil {
		fatal(err)
	}
	if err := st.Pin(digest); err != nil {
		fatal(err)
	}
	if prev != "" {
		st.Unpin(prev) //nolint:errcheck // best effort: over-pinning is safe
	}
	fmt.Fprintf(os.Stderr, "roload-run: checkpoint store://%s\n", digest)
	return digest
}

// writeCheckpoint snapshots the machine and atomically replaces the
// checkpoint file: write to a temp name, fsync the file, rename, fsync
// the parent directory. A kill while checkpointing never leaves a torn
// document behind, and a checkpoint that exists after a power cut is
// durable — not just sitting in the page cache.
func writeCheckpoint(machine *kernel.System, p *kernel.Process, path string) {
	ck, err := kernel.Snapshot(machine, p)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		fatal(err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		fatal(err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		fatal(err)
	}
	// The rename itself must survive a crash: fsync the directory entry.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync() //nolint:errcheck // best effort: some filesystems reject directory fsync
		dir.Close()
	}
}

// writeOutput writes via fn to path, with "-" meaning stdout.
func writeOutput(path string, fn func(io.Writer) error) {
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roload-run:", err)
	os.Exit(1)
}
