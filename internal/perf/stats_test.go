package perf

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

// TestPercentileRule: a percentile is reported only with at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it but was reported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of no samples was reported")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {300, 95}, {199, 90}} {
		if p, _, ok := tail(seq(c.n)); !ok || p != c.want {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v", c.n, p, ok, c.want)
		}
	}
	if _, _, ok := tail(seq(99)); ok {
		t.Error("99 samples support no tail percentile, but one was reported")
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1.5, 2.5}, 1.25, 2.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
}

// TestSLOMissPct: failed and refused requests miss the limit whatever
// their latency.
func TestSLOMissPct(t *testing.T) {
	limit := 10 * time.Millisecond
	outs := []outcome{
		{OK: true, Latency: 5 * time.Millisecond},
		{OK: true, Latency: 15 * time.Millisecond},
		{Latency: time.Millisecond, Err: "mismatch"},
		{Latency: time.Millisecond, Refused: true, Err: "503"},
	}
	if got := sloMissPct(outs, limit); got != 75 {
		t.Errorf("sloMissPct = %v, want 75", got)
	}
	if got := withinLimit(outs, limit); got != 1 {
		t.Errorf("withinLimit = %d, want 1", got)
	}
	if got := latenciesMS(outs); len(got) != 2 {
		t.Errorf("latenciesMS kept %d samples, want the 2 successes", len(got))
	}
}
