package perf

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runWorkload sets up and drives one workload in this process for about
// a second, checks on.
func runWorkload(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	e := &env{seed: 1, seconds: 1, warm: 200 * time.Millisecond, root: "../..",
		dir: t.TempDir(), traceDir: t.TempDir()}
	if traced {
		e.tr = newTracer()
	}
	d, err := w.setup(e)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	res := d.drive(context.Background())
	d.close()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			continue // the parent process times set-up
		}
		if !hasMetric(res.Metrics, m.Name) {
			t.Errorf("%s: no %s", w.name, m.Name)
		}
	}
	if traced {
		for _, m := range perLayer {
			if !hasMetric(res.Layers, m.Name) {
				t.Errorf("%s: traced run has no %s", w.name, m.Name)
			}
		}
		for _, f := range []string{w.name + ".trace.json", w.name + ".layers.json"} {
			if _, err := os.Stat(filepath.Join(e.traceDir, f)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
	return res
}

func hasMetric(ms []metricValue, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestPerfSmoke runs every workload for about a second with every
// check on, and the serve-durable workload once more traced.
func TestPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fleets and runs the evaluation")
	}
	for _, w := range workloads {
		runWorkload(t, w, false)
	}
	durable, _ := lookup("serve-durable")
	runWorkload(t, durable, true)
}
