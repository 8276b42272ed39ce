package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, decoded strictly.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkManifest checks that BENCHMARK.json and the harness's
// registry agree: the same workloads, the same metrics with the same
// units and directions, well-formed names, a bound on every end-to-end
// metric, and the benchmark's own directories as its paths.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"cmd/roload-perf", "internal/perf"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %q, want %q", m.Paths, want)
	}
	if len(m.Command) == 0 || !strings.HasPrefix(strings.Join(m.Command[1:], " "), "cmd/roload-perf/") {
		t.Errorf("command %q does not run the benchmark from cmd/roload-perf", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}

	var names, want []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %q, the registry has %q", names, want)
	}

	seen := make(map[string]bool)
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: malformed or repeated name", kind, name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s metric %s: malformed unit %q", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s: better = %q", kind, name, better)
		}
	}
	for _, w := range names {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q is malformed", w)
		}
	}
	var e2e []metric
	bounds := make(map[string]float64)
	for _, x := range m.EndToEnd {
		check("end-to-end", x.Name, x.Unit, x.Better)
		e2e = append(e2e, metric{x.Name, x.Unit, x.Better})
		bounds[x.Name] = x.Bound
		if x.Bound <= 0 || x.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", x.Name, x.Bound)
		}
	}
	for name, b := range bounds {
		if b > bounds["setup_s"] {
			t.Errorf("%s has bound %v, above setup_s's %v: set-up must have the largest", name, b, bounds["setup_s"])
		}
	}
	for _, x := range m.PerLayer {
		check("per-layer", x.Name, x.Unit, x.Better)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, the registry has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer = %v, the registry has %v", m.PerLayer, perLayer)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}
