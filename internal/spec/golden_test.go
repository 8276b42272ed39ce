package spec

import (
	"testing"

	"roload/internal/core"
)

// Golden outputs for every workload at test scale, pinned so that any
// accidental change to a workload kernel, the compiler, the runtime,
// or the simulator's architectural behaviour is caught immediately.
// (Cycle counts are deliberately NOT pinned: the cost model may be
// tuned; architectural results may not drift.)
var goldens = []struct {
	name   string
	stdout string
	code   int
}{
	{"401.bzip2", "10979\n", 186},
	{"403.gcc", "557034\n150\n", 65},
	{"429.mcf", "403\n2\n", 152},
	{"445.gobmk", "66\n0\n", 66},
	{"456.hmmer", "245\n", 245},
	{"458.sjeng", "36\n684\n", 218},
	{"462.libquantum", "57600\n", 121},
	{"464.h264ref", "10157\n1093\n", 206},
	{"471.omnetpp", "781\n300\n", 28},
	{"473.astar", "133\n", 133},
	{"483.xalancbmk", "11271993\n1532\n", 85},
}

func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			w, ok := ByName(g.name)
			if !ok {
				t.Fatal("workload missing")
			}
			m, err := measure(w.TestSource(), core.HardenNone, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Result.Exited {
				t.Fatalf("killed by %v", m.Result.Signal)
			}
			if got := string(m.Result.Stdout); got != g.stdout {
				t.Errorf("stdout = %q, want %q", got, g.stdout)
			}
			if m.Result.Code != g.code {
				t.Errorf("exit = %d, want %d", m.Result.Code, g.code)
			}
		})
	}
}
