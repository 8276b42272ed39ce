package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"roload/internal/isa"
	"roload/internal/schema"
)

func TestSymTableLocate(t *testing.T) {
	syms := map[string]uint64{
		"main":   0x1000,
		"helper": 0x1040,
		"leaf":   0x10a0,
		"rodata": 0x5000, // outside the code range; must be excluded
	}
	st := NewSymTable(syms, 0x1000, 0x2000)
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	cases := []struct {
		pc   uint64
		name string
		off  uint64
		ok   bool
	}{
		{0x1000, "main", 0, true},
		{0x103c, "main", 0x3c, true},
		{0x1040, "helper", 0, true},
		{0x10fc, "leaf", 0x5c, true},
		{0x5000, "leaf", 0x3f60, true}, // rodata excluded; nearest code sym
		{0x0fff, "", 0, false},
	}
	for _, c := range cases {
		name, off, ok := st.Locate(c.pc)
		if name != c.name || off != c.off || ok != c.ok {
			t.Errorf("Locate(%#x) = %q,%#x,%v; want %q,%#x,%v",
				c.pc, name, off, ok, c.name, c.off, c.ok)
		}
	}
	if got := st.Name(0x0f00); got != "0xf00" {
		t.Errorf("Name(unsymbolized) = %q", got)
	}
	var nilTable *SymTable
	if _, _, ok := nilTable.Locate(0x1000); ok {
		t.Error("nil table located a symbol")
	}
	if got := nilTable.Name(0x10); got != "0x10" {
		t.Errorf("nil table Name = %q", got)
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Event(Event{Kind: KindRetire, PC: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(3 + i); e.PC != want {
			t.Errorf("event %d: pc = %d, want %d", i, e.PC, want)
		}
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Error("reset did not clear the ring")
	}
}

func TestCombine(t *testing.T) {
	var a, b Counters
	if Combine(nil, nil) != nil {
		t.Error("Combine(nil, nil) != nil")
	}
	if Combine(&a) != &a {
		t.Error("Combine of one probe should return it unchanged")
	}
	p := Combine(&a, nil, &b)
	p.Event(Event{Kind: KindTrap})
	if a.ByKind[KindTrap] != 1 || b.ByKind[KindTrap] != 1 {
		t.Error("Multi did not fan out")
	}
	if a.Total() != 1 {
		t.Errorf("Total = %d", a.Total())
	}
}

// retire builds a retire event n cycles long at pc.
func retire(pc, cycle, cost uint64, flags uint8) Event {
	return Event{Kind: KindRetire, PC: pc, Op: isa.ADDI, Size: 4,
		Flags: flags, Cycle: cycle, Cost: cost}
}

func TestProfilerFoldedAndTop(t *testing.T) {
	st := NewSymTable(map[string]uint64{"main": 0x100, "callee": 0x200}, 0, ^uint64(0))
	p := NewProfiler(st)
	// main: 2 instructions, the second a call; callee: 2 instructions,
	// the second a return; then 1 more in main.
	p.Event(retire(0x100, 1, 1, 0))
	p.Event(retire(0x104, 4, 3, FlagCall))
	p.Event(retire(0x200, 5, 1, 0))
	p.Event(retire(0x204, 7, 2, FlagRet))
	p.Event(retire(0x108, 8, 1, 0))

	if p.TotalCycles() != 8 {
		t.Errorf("TotalCycles = %d, want 8", p.TotalCycles())
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "main 5\nmain;callee 3\n"
	if folded.String() != want {
		t.Errorf("folded:\n%s\nwant:\n%s", folded.String(), want)
	}

	rows := p.TopFuncs()
	if len(rows) != 2 {
		t.Fatalf("TopFuncs rows = %d, want 2", len(rows))
	}
	if rows[0].Name != "main" || rows[0].Flat != 5 || rows[0].Cum != 8 {
		t.Errorf("main row = %+v", rows[0])
	}
	if rows[1].Name != "callee" || rows[1].Flat != 3 || rows[1].Cum != 3 {
		t.Errorf("callee row = %+v", rows[1])
	}

	var top bytes.Buffer
	if err := p.WriteTop(&top, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(top.String(), "main") || !strings.Contains(top.String(), "callee") {
		t.Errorf("top report:\n%s", top.String())
	}

	pcs := p.HottestPCs(1)
	if len(pcs) != 1 || pcs[0].PC != 0x104 || pcs[0].Cycles != 3 {
		t.Errorf("HottestPCs = %+v", pcs)
	}
}

func TestProfilerTailCallSwapsLeaf(t *testing.T) {
	st := NewSymTable(map[string]uint64{"a": 0x100, "b": 0x200}, 0, ^uint64(0))
	p := NewProfiler(st)
	p.Event(retire(0x100, 1, 1, 0)) // in a
	p.Event(retire(0x200, 2, 1, 0)) // jumped (not called) into b
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if want := "a 1\nb 1\n"; folded.String() != want {
		t.Errorf("folded = %q, want %q", folded.String(), want)
	}
}

// TestChromeTraceSchema checks the exporter against the trace-event
// format contract: a traceEvents array whose entries all carry name,
// ph, ts, pid and tid, with phases limited to the ones we emit and
// B/E spans balanced per tid.
func TestChromeTraceSchema(t *testing.T) {
	st := NewSymTable(map[string]uint64{"main": 0x100, "f": 0x200}, 0, ^uint64(0))
	r := NewRing(64)
	r.Event(retire(0x100, 1, 1, 0))
	r.Event(Event{Kind: KindTLB, Side: SideD, Hit: false, VA: 0x8000, Cycle: 1})
	r.Event(Event{Kind: KindWalk, Side: SideD, Hit: true, VA: 0x8000, Num: 3, Cycle: 1})
	r.Event(Event{Kind: KindCache, Side: SideD, Hit: false, VA: 0x8000, Cycle: 1})
	r.Event(retire(0x104, 38, 37, FlagCall))
	r.Event(Event{Kind: KindROLoadCheck, Hit: true, VA: 0x9000, WantKey: 7, GotKey: 7, Cycle: 39})
	r.Event(retire(0x200, 40, 2, FlagRet))
	r.Event(Event{Kind: KindSyscall, PC: 0x108, Num: 93, Cycle: 45})
	r.Event(Event{Kind: KindSignal, Num: 11, Cycle: 50})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, st); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	open := map[any][]string{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		switch ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Errorf("X event without dur: %v", ev)
			}
		case "B":
			open[ev["tid"]] = append(open[ev["tid"]], ev["name"].(string))
		case "E":
			stack := open[ev["tid"]]
			if len(stack) == 0 {
				t.Fatalf("E without matching B: %v", ev)
			}
			if stack[len(stack)-1] != ev["name"].(string) {
				t.Errorf("unbalanced span: close %q, open %q",
					ev["name"], stack[len(stack)-1])
			}
			open[ev["tid"]] = stack[:len(stack)-1]
		case "i":
			// instant events need a scope
			if ev["s"] != "t" {
				t.Errorf("instant event without thread scope: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	for tid, stack := range open {
		if len(stack) != 0 {
			t.Errorf("tid %v left %d spans open", tid, len(stack))
		}
	}
	// The function track must symbolize both frames.
	s := buf.String()
	for _, name := range []string{"main", "f", "roload-check-pass", "syscall(93)", "signal(11)"} {
		if !strings.Contains(s, name) {
			t.Errorf("trace missing %q", name)
		}
	}
}

func TestAuditText(t *testing.T) {
	var a Audit
	a.Record(AuditRecord{
		Cycle: 123, Instret: 45, PC: 0x10428, Func: "victim",
		VA: 0x20000, WantKey: 111, GotKey: 0, NotReadOnly: false,
		Signal: "SIGSEGV",
	})
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, frag := range []string{
		"ROLOAD-AUDIT", "pc=0x10428", "(victim)", "fault va=0x20000",
		"want key=111", "got key=0", "SIGSEGV",
	} {
		if !strings.Contains(line, frag) {
			t.Errorf("audit line missing %q:\n%s", frag, line)
		}
	}
	if a.Len() != 1 {
		t.Errorf("Len = %d", a.Len())
	}
	var empty *Audit
	if empty.Len() != 0 || empty.Records() != nil {
		t.Error("nil audit must be empty")
	}
}

func TestSnapshotJSON(t *testing.T) {
	s := &schema.Snapshot{
		System: "processor+kernel-modified",
		Exited: true, Cycles: 1000, Instret: 800,
		CPU:    schema.CPUCounters{Instructions: 800, ROLoads: 5},
		DCache: schema.CacheCounters{Hits: 90, Misses: 10, MissRate: 0.1},
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back["schema"] != schema.MetricsV1 {
		t.Errorf("schema = %v", back["schema"])
	}
	for _, key := range []string{"system", "cycles", "instret", "cpu", "itlb", "dtlb", "icache", "dcache"} {
		if _, ok := back[key]; !ok {
			t.Errorf("snapshot missing %q", key)
		}
	}
	if back["cpu"].(map[string]any)["roloads"] != float64(5) {
		t.Error("cpu.roloads not serialized")
	}
}

func TestKindAndSideStrings(t *testing.T) {
	kinds := []Kind{KindRetire, KindTrap, KindTLB, KindWalk, KindCache,
		KindROLoadCheck, KindSyscall, KindPageFault, KindSignal}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "event" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if SideI.String() != "I" || SideD.String() != "D" {
		t.Error("side names")
	}
}
