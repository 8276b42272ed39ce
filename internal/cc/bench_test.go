package cc

import (
	"testing"

	"roload/internal/spec"
)

// BenchmarkCompile compiles the serve-small programs (every spec
// program but 464.h264ref, at scale 1) to units: lex, parse, check and
// code generation. One op is one program.
func BenchmarkCompile(b *testing.B) {
	var srcs []string
	for _, w := range spec.Workloads() {
		if w.Name != "464.h264ref" {
			srcs = append(srcs, w.SourceFor(1))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}
