package perf

import (
	"context"
	"flag"
	"os"
	"testing"

	"roload/internal/eval"
)

var update = flag.Bool("update", false, "rewrite testdata/eval.golden.json from a fresh report")

// TestEvalGolden checks a fresh evaluation report against the golden
// the eval workload verifies every report with; -update rewrites it.
func TestEvalGolden(t *testing.T) {
	rep, err := eval.NewRunner(0).BuildReport(context.Background(), evalScale, "../..")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		got, err := goldenReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := reportShapes(rep); err != nil {
			t.Fatalf("refusing to write a golden that breaks the evaluation's shapes: %v", err)
		}
		if err := os.WriteFile("testdata/eval.golden.json", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := checkReport(rep); err != nil {
		t.Fatal(err)
	}
}

// TestReportShapes checks that the shape checks catch a broken
// evaluation even when the golden was regenerated to match it.
func TestReportShapes(t *testing.T) {
	rep, err := eval.NewRunner(0).BuildReport(context.Background(), evalScale, "../..")
	if err != nil {
		t.Fatal(err)
	}
	if err := reportShapes(rep); err != nil {
		t.Fatalf("fresh report: %v", err)
	}
	broken := *rep
	broken.Security = append([]eval.AttackEntry(nil), rep.Security...)
	for i, e := range broken.Security {
		if e.Scheme == "ICall" && e.Covered {
			broken.Security[i].Hijacked = true
			break
		}
	}
	if reportShapes(&broken) == nil {
		t.Error("a hijacked ROLoad-covered attack passed the shape checks")
	}
	broken = *rep
	broken.SysOverhead = append([]eval.SysOverheadEntry(nil), rep.SysOverhead...)
	broken.SysOverhead[0].FullPct = 3
	if reportShapes(&broken) == nil {
		t.Error("a 3% system overhead passed the shape checks")
	}
}
