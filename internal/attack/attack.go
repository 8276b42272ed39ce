// Package attack is the security-evaluation harness (paper Section
// V-C2): it mounts the memory-corruption attacks of the threat model
// against victim programs built with each hardening scheme and
// classifies the outcome.
//
// The threat model grants the adversary repeated arbitrary reads and
// writes to readable/writable memory (modelled by Process.CorruptMem,
// which — like a real vulnerability exploited through program stores —
// cannot touch read-only pages), full knowledge of the address space,
// and fires at a deterministic point via the attack_point() intrinsic.
package attack

import (
	"context"
	"fmt"
	"strings"

	"roload/internal/cc"
	"roload/internal/core"
	"roload/internal/kernel"
)

// Outcome classifies what an attack achieved.
type Outcome int

const (
	// Hijacked: the attacker-controlled code ran.
	Hijacked Outcome = iota
	// BlockedROLoad: an ld.ro check stopped the attack (SIGSEGV with
	// the kernel's ROLoad-violation report).
	BlockedROLoad
	// BlockedCheck: software instrumentation (VTint range check or CFI
	// ID check) trapped the attack.
	BlockedCheck
	// BlockedFault: the attack died on an ordinary fault (e.g. the
	// corrupted pointer led somewhere unmapped or non-executable).
	BlockedFault
	// CorruptionFailed: the corruption primitive itself was stopped
	// (target page not writable).
	CorruptionFailed
	// Survived: the program ran to completion without executing the
	// payload; the corruption either had no effect or only diverted
	// control within the legitimate allowlist (pointee reuse).
	Survived
)

func (o Outcome) String() string {
	switch o {
	case Hijacked:
		return "HIJACKED"
	case BlockedROLoad:
		return "blocked by ROLoad check (SIGSEGV, ROLoad violation)"
	case BlockedCheck:
		return "blocked by software check (SIGTRAP)"
	case BlockedFault:
		return "blocked by ordinary fault (SIGSEGV)"
	case CorruptionFailed:
		return "corruption blocked by page permissions"
	case Survived:
		return "no effect"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result is one attack run.
type Result struct {
	Scenario  string
	Hardening core.Hardening
	Outcome   Outcome
	Detail    string
	Run       kernel.RunResult
}

// classify derives the outcome from the run result.
func classify(res kernel.RunResult, corruptErr error) (Outcome, string) {
	if corruptErr != nil {
		return CorruptionFailed, corruptErr.Error()
	}
	out := string(res.Stdout)
	switch {
	case strings.Contains(out, "PWNED") || (res.Exited && res.Code == 66):
		return Hijacked, fmt.Sprintf("attacker payload executed (exit=%d)", res.Code)
	case res.Signal == kernel.SIGSEGV && res.ROLoadViolation:
		return BlockedROLoad, fmt.Sprintf("ld.ro fault at %#x (want key %d, got key %d)",
			res.FaultVA, res.FaultWantKey, res.FaultGotKey)
	case res.Signal == kernel.SIGTRAP:
		return BlockedCheck, fmt.Sprintf("instrumentation trap at %#x", res.FaultVA)
	case res.Signal != kernel.SigNone:
		return BlockedFault, fmt.Sprintf("%v at %#x", res.Signal, res.FaultVA)
	default:
		return Survived, fmt.Sprintf("exit=%d output=%q", res.Code, out)
	}
}

// Scenario describes one attack.
type Scenario struct {
	Name        string
	Description string
	// Victim is MiniC source containing an attack_point() call and an
	// "evil" function that prints PWNED and exits 66.
	Victim string
	// Corrupt performs the memory corruption. unit gives access to the
	// hardened program's symbol conventions.
	Corrupt func(p *kernel.Process, unit *cc.Unit) error
	// Covered lists the hardening schemes whose protection scope
	// includes this attack: a hijack under a covered scheme is a
	// defense failure; under any other scheme it is expected.
	Covered []core.Hardening
}

// Covers reports whether h is expected to stop this scenario.
func (s *Scenario) Covers(h core.Hardening) bool {
	for _, c := range s.Covered {
		if c == h {
			return true
		}
	}
	return false
}

// MountContext builds the victim with scheme h, runs it on the fully
// modified system, fires the corruption at the attack point, and
// classifies the outcome. A cancelled ctx stops the victim mid-run and
// returns the kernel's *kernel.CanceledError.
func (s *Scenario) MountContext(ctx context.Context, h core.Hardening) (Result, error) {
	img, unit, err := core.Build(s.Victim, h)
	if err != nil {
		return Result{}, fmt.Errorf("attack: building victim: %w", err)
	}
	cfg := kernel.FullSystem()
	cfg.MaxSteps = 100_000_000
	sys := kernel.NewSystem(cfg)
	p, err := sys.Spawn(img)
	if err != nil {
		return Result{}, err
	}
	var corruptErr error
	fired := false
	sys.SetAttackHook(func(proc *kernel.Process) error {
		fired = true
		corruptErr = s.Corrupt(proc, unit)
		return corruptErr
	})
	res, err := sys.RunContext(ctx, p)
	if err != nil {
		return Result{}, err
	}
	if !fired {
		return Result{}, fmt.Errorf("attack: victim never reached attack_point()")
	}
	outcome, detail := classify(res, corruptErr)
	return Result{
		Scenario:  s.Name,
		Hardening: h,
		Outcome:   outcome,
		Detail:    detail,
		Run:       res,
	}, nil
}

func sym(p *kernel.Process, name string) (uint64, error) {
	v, ok := p.Sym(name)
	if !ok {
		return 0, fmt.Errorf("attack: symbol %q not found", name)
	}
	return v, nil
}
