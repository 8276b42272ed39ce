// Command roload-perf is the repository's performance benchmark: it
// runs seeded workloads against the real tiers (the paper evaluation,
// and a gateway in front of two serve backends), verifies every output,
// and prints every end-to-end metric, or with -trace 1 the per-layer
// metrics of a traced re-run. See internal/perf/README.md.
//
// Build and run it from the repository root with
//
//	bash cmd/roload-perf/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]
package main

import (
	"os"

	"roload/internal/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:]))
}
