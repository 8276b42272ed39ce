package perf

import (
	"testing"

	"roload/internal/schema"
)

// TestSelfTime checks the self-time arithmetic: a span's duration minus
// the union of its children's intervals, clipped to the span, with
// overlapping children counted once.
func TestSelfTime(t *testing.T) {
	span := func(id, parent, name string, start, dur int64) schema.Span {
		return schema.Span{ID: id, Parent: parent, Name: name, StartUS: start, DurUS: dur}
	}
	spans := []schema.Span{
		span("p", "", "service", 0, 100),
		span("a", "p", "request", 10, 20),   // [10,30)
		span("b", "p", "request", 20, 30),   // [20,50): overlaps a
		span("c", "p", "request", 60, 10),   // [60,70)
		span("d", "p", "request", 90, 30),   // [90,120): clipped to [90,100)
		span("e", "a", "queue-wait", 12, 5), // a grandchild: not p's child
		span("f", "c", "execute", 61, 4),    // under c
		span("g", "", "replication.push", 0, 7),
	}
	tree := newSpanTree(spans)
	if got := tree.self(spans[0]); got != 100-(40+10+10) {
		t.Errorf("self(p) = %d, want 40", got)
	}
	if got := tree.self(spans[1]); got != 15 {
		t.Errorf("self(a) = %d, want 15", got)
	}
	if got := tree.self(spans[7]); got != 7 {
		t.Errorf("self of a childless span = %d, want its duration 7", got)
	}
	stages := func(s schema.Span) bool { return s.Name == "queue-wait" || s.Name == "execute" }
	if got := tree.covered(spans[0], stages); got != 9 {
		t.Errorf("stage coverage of p through its children = %d, want 5+4", got)
	}
}
