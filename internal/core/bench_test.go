package core

import (
	"context"
	"testing"

	"roload/internal/spec"
)

// BenchmarkRunWithLiveContext runs one test-scale spec workload through
// RunWith, as the service executes a request. "background" runs it in
// one slice; "live" polls a cancellable context at the default stride,
// so every stride boundary is an engine slice boundary.
func BenchmarkRunWithLiveContext(b *testing.B) {
	w := spec.Workloads()[0]
	img, _, err := Build(w.TestSource(), HardenICall)
	if err != nil {
		b.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"live", live},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var instret uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := RunWith(bc.ctx, img, SysFull, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				instret += res.Instret
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instret), "ns/inst")
		})
	}
}
