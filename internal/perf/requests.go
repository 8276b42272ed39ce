package perf

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"roload/internal/cli"
	"roload/internal/core"
	"roload/internal/schema"
	"roload/internal/spec"
)

// request is one generated request of a serve workload. The tiers
// receive only its bytes; the rest tells the checks what to expect.
type request struct {
	runID string // the Roload-Trace id: the run or batch id
	body  []byte
	// prog and scale name the program; h is its hardening (run
	// requests).
	prog  string
	scale int
	h     core.Hardening
	// replay is the index of the batch this request re-POSTs, or -1.
	replay int
}

// genFunc generates the first n requests of a workload's stream. The
// stream is a pure function of the seed.
type genFunc func(seed int64, n int) []request

// hardenings are the schemes the run workloads draw from.
var hardenings = []core.Hardening{core.HardenNone, core.HardenVCall, core.HardenVTint,
	core.HardenICall, core.HardenCFI, core.HardenRetGuard}

// runPrograms are the programs the run workloads draw from: every spec
// program except 464.h264ref, whose ~230 ms test-scale run would own
// the tail of any workload it joined (eval measures it).
func runPrograms() []spec.Workload {
	var ws []spec.Workload
	for _, w := range spec.Workloads() {
		if w.Name != "464.h264ref" {
			ws = append(ws, w)
		}
	}
	return ws
}

// durablePrograms are the programs behind the durable workload's
// batches: small at scale 1, several long enough to checkpoint.
var durablePrograms = []string{"429.mcf", "445.gobmk", "456.hmmer", "458.sjeng", "483.xalancbmk"}

func runID(seed int64, i int) string { return fmt.Sprintf("perf-%d-%d", seed, i) }

// uniqueTail is a trailing comment that makes a source's bytes, and so
// every cache key derived from them, new without changing its image.
func uniqueTail(seed int64, i int) string {
	return fmt.Sprintf("\n// roload-perf seed %d request %d\n", seed, i)
}

func runRequest(seed int64, i int, w spec.Workload, scale int, h core.Hardening, src string) request {
	body, err := json.Marshal(schema.RunRequest{Source: src, Harden: cli.HardeningName(h)})
	if err != nil {
		panic(err) // a RunRequest always marshals
	}
	return request{runID: runID(seed, i), body: body, prog: w.Name, scale: scale, h: h, replay: -1}
}

// deck deals items in seeded shuffles of the whole set: every run sees
// each item equally often whatever the seed, and only the order
// varies. Latency medians over a mix of programs whose run times differ
// tenfold would otherwise move with the seed's luck in drawing them.
type deck[T any] struct {
	r     *rand.Rand
	items []T
	hand  []T
}

func (d *deck[T]) draw() T {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.items...)
		d.r.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	x := d.hand[0]
	d.hand = d.hand[1:]
	return x
}

// genSmall: every request compiles a program that is new to the
// caches, at scale 1 or 2.
func genSmall(seed int64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	progs := &deck[spec.Workload]{r: r, items: runPrograms()}
	out := make([]request, n)
	for i := range out {
		w := progs.draw()
		scale := 1 + r.Intn(2)
		h := hardenings[r.Intn(len(hardenings))]
		out[i] = runRequest(seed, i, w, scale, h, w.SourceFor(scale)+uniqueTail(seed, i))
	}
	return out
}

// mixUnique is the share of serve-mix requests that are new to the
// caches; the rest come from a fixed pool of one request per (program,
// hardening), so after its first use each repeats an earlier request
// byte for byte and hits the image cache.
const mixUnique = 0.2

// genMix: test-scale programs, mostly from the pool.
func genMix(seed int64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	progs := &deck[spec.Workload]{r: r, items: runPrograms()}
	out := make([]request, n)
	for i := range out {
		w := progs.draw()
		h := hardenings[r.Intn(len(hardenings))]
		src := w.TestSource()
		if r.Float64() < mixUnique {
			src += uniqueTail(seed, i)
		}
		out[i] = runRequest(seed, i, w, w.TestScale, h, src)
	}
	return out
}

// replayGap is how many requests back a replayed batch was first sent
// at the least, so its original has almost always answered already.
const replayGap = 8

// batchRuns are the two runs of every durable batch: one checkpointing
// into the store, one on the baseline system.
var batchRuns = []schema.BatchRunSpec{{CheckpointEvery: 50000}, {System: "baseline"}}

// batchSystems are the systems batchRuns execute on.
var batchSystems = []core.SystemKind{core.SysFull, core.SysBaseline}

// genDurable: two requests in three are new batches whose source
// carries a data salt, so images, checkpoints and run results get new
// digests; the third re-POSTs an earlier batch id with its identical
// body. A replay takes a fifth of a new batch's time, so an even split
// would put the latency median on the gap between the two.
func genDurable(seed int64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	progs := &deck[string]{r: r, items: durablePrograms}
	kinds := &deck[bool]{r: r, items: []bool{false, false, true}}
	out := make([]request, n)
	var fresh []int
	for i := range out {
		eligible := 0
		for eligible < len(fresh) && fresh[eligible] <= i-replayGap {
			eligible++
		}
		if replay := kinds.draw(); replay && eligible > 0 {
			j := fresh[r.Intn(eligible)]
			out[i] = out[j]
			out[i].replay = j
			continue
		}
		w, _ := spec.ByName(progs.draw())
		src := w.SourceFor(1) + fmt.Sprintf("\nvar perf_salt int = %d;\n", seed<<24|int64(i))
		body, err := json.Marshal(schema.BatchRequest{Source: src, Runs: batchRuns})
		if err != nil {
			panic(err) // a BatchRequest always marshals
		}
		out[i] = request{runID: runID(seed, i), body: body, prog: w.Name, scale: 1, h: core.HardenNone, replay: -1}
		fresh = append(fresh, i)
	}
	return out
}
