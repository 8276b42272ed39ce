package fault

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"roload/internal/asm"
	"roload/internal/core"
	"roload/internal/isa"
	"roload/internal/kernel"
	"roload/internal/mmu"
	"roload/internal/schema"
)

// The pointee-integrity chaos matrix: for every hardening mode ×
// workload it mounts a battery of injected faults around the workload's
// sensitive operation and demands the paper's central claim hold under
// duress — a fault targeting a keyed read-only page is either
// observably benign or caught as a ROLoad key fault, never a silent
// corruption; while the same pointer hijack against the unhardened
// baseline succeeds silently.

// Verdict classifies one chaos cell.
const (
	// VerdictBenign: observables (stdout, exit status) identical to the
	// fault-free run. Timing may differ; that is the point of purely
	// micro-architectural faults like cache-loss.
	VerdictBenign = "benign"
	// VerdictCaught: the kernel reported a ROLoad key fault.
	VerdictCaught = "caught-roload"
	// VerdictBlocked: the fault was stopped observably by something
	// other than a ROLoad check (page permissions, another signal).
	VerdictBlocked = "blocked-other"
	// VerdictHijacked: the attacker payload ran with no fault report —
	// the silent control-flow hijack hardened modes must never show.
	VerdictHijacked = "hijacked-silent"
	// VerdictCorrupted: output diverged from the fault-free run with no
	// report of any kind — a silent data corruption.
	VerdictCorrupted = "corrupted-silent"
)

// Workload is one victim program of the chaos matrix.
type Workload struct {
	Name string
	// Victim is MiniC source with an attack_point() call separating the
	// benign use of the sensitive pointer from the attacked one.
	Victim string
	// Covered lists the hardening schemes whose protection scope
	// includes this workload's sensitive pointer.
	Covered []core.Hardening
	// Hijack returns the ptr-write specs mounting the workload's
	// classic pointer hijack at retire count at.
	Hijack func(p *kernel.Process, at uint64) ([]schema.FaultSpec, error)
}

// fptrChaos is the forward-edge workload: a global function pointer
// drives the sensitive call.
const fptrChaos = `
func double(x int) int { return x * 2; }
func triple(x int) int { return x * 3; }

var handler func(int) int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	handler = double;
	print_int(handler(21));
	attack_point();
	print_int(handler(6));
	return 0;
}
`

// vtableChaos is the virtual-call workload: the object's vptr drives
// the sensitive call, and the attacker owns a writable fake table.
const vtableChaos = `
class Greeter {
	who int;
	virtual greet() int { print_str("hi "); print_int(this.who); return this.who; }
}

var victim *Greeter;
var attackerBuf [4]int;

func evil() int {
	print_str("PWNED");
	exit(66);
	return 0;
}

func main() int {
	var g *Greeter = new Greeter;
	g.who = 7;
	victim = g;
	victim.greet();
	attack_point();
	return victim.greet();
}
`

// Workloads returns the chaos matrix victim programs.
func Workloads() []*Workload {
	return []*Workload{
		{
			Name:    "fptr-call",
			Victim:  fptrChaos,
			Covered: []core.Hardening{core.HardenICall, core.HardenFull},
			Hijack: func(p *kernel.Process, at uint64) ([]schema.FaultSpec, error) {
				slot, err := symVA(p, "g_handler")
				if err != nil {
					return nil, err
				}
				evil, err := symVA(p, "evil")
				if err != nil {
					return nil, err
				}
				return []schema.FaultSpec{
					{Kind: schema.FaultPtrWrite, At: at, Addr: slot, Val: evil},
				}, nil
			},
		},
		{
			Name:    "vtable-call",
			Victim:  vtableChaos,
			Covered: []core.Hardening{core.HardenVCall, core.HardenVTint, core.HardenFull},
			Hijack: func(p *kernel.Process, at uint64) ([]schema.FaultSpec, error) {
				objPtr, err := symVA(p, "g_victim")
				if err != nil {
					return nil, err
				}
				obj, err := p.PeekUint(objPtr, 8)
				if err != nil {
					return nil, err
				}
				fake, err := symVA(p, "g_attackerBuf")
				if err != nil {
					return nil, err
				}
				evil, err := symVA(p, "evil")
				if err != nil {
					return nil, err
				}
				specs := make([]schema.FaultSpec, 0, 5)
				for i := uint64(0); i < 4; i++ {
					specs = append(specs, schema.FaultSpec{
						Kind: schema.FaultPtrWrite, At: at, Addr: fake + 8*i, Val: evil,
					})
				}
				// Redirect the vptr to the fake table last.
				specs = append(specs, schema.FaultSpec{
					Kind: schema.FaultPtrWrite, At: at, Addr: obj, Val: fake,
				})
				return specs, nil
			},
		},
	}
}

// Cell is one (workload, scheme, fault) outcome.
type Cell struct {
	Workload string            `json:"workload"`
	Scheme   string            `json:"scheme"`
	Fault    string            `json:"fault"`
	Verdict  string            `json:"verdict"`
	Detail   string            `json:"detail,omitempty"`
	Plan     schema.FaultPlan  `json:"plan"`
	Trace    schema.FaultTrace `json:"trace"`
}

// Report is the chaos-matrix result document. Bad is true when any
// hardened cell showed a silent hijack or silent corruption — the
// condition under which the paper's claim would be falsified.
type Report struct {
	Seed  uint64 `json:"seed"`
	Cells []Cell `json:"cells"`
	Bad   bool   `json:"bad"`
}

// buildVictim compiles and hardens a workload, boots a machine, and
// runs it once fault-free to collect the reference observables, the
// attack-point retire count, and the loaded image.
func buildVictim(w *Workload, h core.Hardening) (*asm.Image, error) {
	img, _, err := core.Build(w.Victim, h)
	if err != nil {
		return nil, fmt.Errorf("fault: building %s: %w", w.Name, err)
	}
	return img, nil
}

func chaosConfig() kernel.Config {
	cfg := kernel.FullSystem()
	cfg.MaxSteps = 100_000_000
	return cfg
}

// spawnVictim boots a machine with an attack-point recorder installed.
func spawnVictim(img *asm.Image) (*kernel.System, *kernel.Process, *uint64, error) {
	sys := kernel.NewSystem(chaosConfig())
	p, err := sys.Spawn(img)
	if err != nil {
		return nil, nil, nil, err
	}
	atk := new(uint64)
	sys.SetAttackHook(func(*kernel.Process) error {
		*atk = sys.CPU().Instret
		return nil
	})
	return sys, p, atk, nil
}

// keyedTarget picks the fault target inside a keyed read-only page: the
// first slot of the first keyed section. Unhardened binaries have no
// keyed pages; they fall back to the sensitive slot's writable page,
// which keeps every cell runnable and shows key faults are only ever
// raised where keys exist.
func keyedTarget(img *asm.Image, fallback uint64) uint64 {
	for _, sec := range img.Sections {
		if sec.Key != 0 && sec.Size > 0 {
			return sec.VA
		}
	}
	return fallback
}

// classifyCell derives the verdict by comparing a faulted run against
// the fault-free reference.
func classifyCell(ref, res kernel.RunResult) (string, string) {
	out := string(res.Stdout)
	switch {
	case res.ROLoadViolation:
		return VerdictCaught, fmt.Sprintf("ld.ro fault at %#x (want key %d, got key %d)",
			res.FaultVA, res.FaultWantKey, res.FaultGotKey)
	case strings.Contains(out, "PWNED") || (res.Exited && res.Code == 66):
		return VerdictHijacked, fmt.Sprintf("attacker payload executed (exit=%d)", res.Code)
	case res.Signal != kernel.SigNone:
		return VerdictBlocked, fmt.Sprintf("%v at %#x", res.Signal, res.FaultVA)
	case res.Exited == ref.Exited && res.Code == ref.Code && out == string(ref.Stdout):
		return VerdictBenign, fmt.Sprintf("observables identical (exit=%d)", res.Code)
	default:
		return VerdictCorrupted, fmt.Sprintf("output diverged silently: %q vs %q", out, ref.Stdout)
	}
}

// RunMatrix executes the chaos matrix: every workload × its hardening
// schemes (plus the unhardened baseline) × the fault battery. seed
// drives the corrupted key values deterministically — the same seed
// yields a byte-identical report, which is what the tools print for
// one-flag reproduction.
func RunMatrix(ctx context.Context, seed uint64) (Report, error) {
	rep := Report{Seed: seed}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, w := range Workloads() {
		schemes := append([]core.Hardening{core.HardenNone}, w.Covered...)
		for _, h := range schemes {
			cells, err := runSchemeCells(ctx, w, h, rng)
			if err != nil {
				return rep, fmt.Errorf("fault: chaos %s/%v: %w", w.Name, h, err)
			}
			rep.Cells = append(rep.Cells, cells...)
		}
	}
	for _, c := range rep.Cells {
		if c.Scheme != core.HardenNone.String() &&
			(c.Verdict == VerdictHijacked || c.Verdict == VerdictCorrupted) {
			rep.Bad = true
		}
	}
	return rep, nil
}

// runSchemeCells runs the whole fault battery for one workload under
// one scheme.
func runSchemeCells(ctx context.Context, w *Workload, h core.Hardening, rng *rand.Rand) ([]Cell, error) {
	img, err := buildVictim(w, h)
	if err != nil {
		return nil, err
	}

	// Fault-free reference run; it also discovers the attack-point
	// retire count that anchors every fault.
	sys, p, atk, err := spawnVictim(img)
	if err != nil {
		return nil, err
	}
	ref, err := sys.RunContext(ctx, p)
	if err != nil {
		return nil, err
	}
	if *atk == 0 {
		return nil, fmt.Errorf("victim never reached attack_point()")
	}
	at := *atk + 1 // first instruction after the attack-point syscall

	hijack, err := w.Hijack(p, at)
	if err != nil {
		return nil, err
	}
	slot := hijack[len(hijack)-1].Addr // the sensitive slot itself
	keyedVA := keyedTarget(img, slot)
	curKey := uint16(0)
	if pte, _, ok := p.Mapper().Lookup(PageOf(keyedVA)); ok {
		curKey = mmu.PTEKey(pte)
	}
	wrongKey := uint16(1 + rng.Intn(int(isa.MaxKey)-1))
	if wrongKey == curKey {
		wrongKey = curKey ^ 1
	}

	battery := []struct {
		name  string
		specs []schema.FaultSpec
	}{
		{"hijack-slot", hijack},
		{"ptr-write-keyed", []schema.FaultSpec{
			{Kind: schema.FaultPtrWrite, At: at, Addr: keyedVA, Val: hijack[len(hijack)-1].Val}}},
		{"pte-key", []schema.FaultSpec{
			{Kind: schema.FaultPTEKey, At: at, Addr: keyedVA, Key: wrongKey}}},
		{"pte-perm", []schema.FaultSpec{
			{Kind: schema.FaultPTEPerm, At: at, Addr: keyedVA}}},
		{"tlb-key", []schema.FaultSpec{
			{Kind: schema.FaultTLBKey, At: at, Addr: keyedVA, Key: wrongKey}}},
		{"cache-loss", []schema.FaultSpec{
			{Kind: schema.FaultCacheLoss, At: at, Addr: keyedVA}}},
		{"spurious-trap", []schema.FaultSpec{
			{Kind: schema.FaultSpuriousTrap, At: at}}},
	}

	cells := make([]Cell, 0, len(battery))
	for _, b := range battery {
		plan := schema.FaultPlan{Schema: schema.FaultV1, Seed: 0, Faults: b.specs}
		fsys, fp, _, err := spawnVictim(img)
		if err != nil {
			return nil, err
		}
		eng, err := Attach(fsys, fp, plan)
		if err != nil {
			return nil, err
		}
		res, err := fsys.RunContext(ctx, fp)
		eng.Detach()
		if err != nil {
			return nil, err
		}
		verdict, detail := classifyCell(ref, res)
		cells = append(cells, Cell{
			Workload: w.Name,
			Scheme:   schemeName(h),
			Fault:    b.name,
			Verdict:  verdict,
			Detail:   detail,
			Plan:     plan,
			Trace:    eng.Trace(),
		})
	}
	return cells, nil
}

func schemeName(h core.Hardening) string {
	if h == core.HardenNone {
		return "none"
	}
	return h.String()
}

func symVA(p *kernel.Process, name string) (uint64, error) {
	v, ok := p.Sym(name)
	if !ok {
		return 0, fmt.Errorf("fault: symbol %q not found", name)
	}
	return v, nil
}

// RenderMatrix writes the chaos report as the roload-attack -chaos
// table. It always prints the seed, so any surprising verdict is
// reproducible from one flag.
func RenderMatrix(w io.Writer, rep Report, verbose bool) {
	fmt.Fprintf(w, "chaos matrix (fault-plan seed %d)\n\n", rep.Seed)
	last := ""
	for _, c := range rep.Cells {
		head := c.Workload + " / " + c.Scheme
		if head != last {
			fmt.Fprintf(w, "%s\n", head)
			last = head
		}
		mark := "  "
		if c.Verdict == VerdictHijacked || c.Verdict == VerdictCorrupted {
			mark = "!!"
		}
		fmt.Fprintf(w, " %s %-16s -> %s\n", mark, c.Fault, c.Verdict)
		if verbose {
			fmt.Fprintf(w, "      %s\n", c.Detail)
			for _, ev := range c.Trace.Events {
				fmt.Fprintf(w, "      inject %s @%d: %s\n", ev.Kind, ev.Instret, ev.Effect)
			}
		}
	}
	if rep.Bad {
		fmt.Fprintf(w, "\nFAIL: a hardened cell corrupted or hijacked silently (reproduce with -seed %d)\n", rep.Seed)
	} else {
		fmt.Fprintf(w, "\nhardened cells: every fault benign, blocked, or caught by a ROLoad key fault\n")
	}
}
