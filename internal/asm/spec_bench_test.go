package asm_test

import (
	"testing"

	"roload/internal/asm"
	"roload/internal/attack"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/spec"
)

// BenchmarkAssembleSpec assembles the programs the serve-small workload
// compiles: the spec workloads other than 464.h264ref at scales 1 and 2
// under the six evaluation hardenings. One op is one program.
func BenchmarkAssembleSpec(b *testing.B) {
	var texts []string
	var total int
	for _, w := range spec.Workloads() {
		if w.Name == "464.h264ref" {
			continue
		}
		for scale := 1; scale <= 2; scale++ {
			for _, h := range attack.MatrixSchemes {
				unit, err := cc.Compile(w.SourceFor(scale))
				if err != nil {
					b.Fatal(err)
				}
				if err := harden.Apply(unit, h.Passes()...); err != nil {
					b.Fatal(err)
				}
				texts = append(texts, unit.Assembly())
				total += len(texts[len(texts)-1])
			}
		}
	}
	b.SetBytes(int64(total / len(texts)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(texts[i%len(texts)], asm.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
