package core

import (
	"context"
	"testing"

	"roload/internal/spec"
)

// BenchmarkBuild builds the serve-small program set, as the service
// builds a request new to its image cache: every spec program but
// 464.h264ref at scale 1 under each of the six evaluated schemes. One
// op is one program, compiled, hardened and linked.
func BenchmarkBuild(b *testing.B) {
	type job struct {
		src string
		h   Hardening
	}
	var jobs []job
	for _, w := range spec.Workloads() {
		if w.Name == "464.h264ref" {
			continue
		}
		for _, h := range []Hardening{HardenNone, HardenVCall, HardenVTint, HardenICall, HardenCFI, HardenRetGuard} {
			jobs = append(jobs, job{w.SourceFor(1), h})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, _, err := Build(j.src, j.h); err != nil {
			b.Fatal(err)
		}
	}
}

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
