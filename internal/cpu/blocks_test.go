package cpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"unsafe"

	"roload/internal/isa"
	"roload/internal/mem"
	"roload/internal/mmu"
	"roload/internal/obs"
)

// Data pages of the engine fixtures: a read-write page and a
// read-only page with ROLoad key dataKey, both filled with a byte
// pattern whose high bits are set, so sign and zero extension differ.
const (
	dataVA, dataPA = 0x80000, 0x700000
	roVA, roPA     = 0x81000, 0x701000
	dataKey        = 5
)

// engines lists the execution engines; the first is the reference
// every other must match exactly.
var engines = []struct {
	name               string
	noFastPath, noBlks bool
}{
	{"interp", true, true},
	{"fast", false, true},
	{"blocks", false, false},
}

// engineSet is one machine per engine, laid out identically.
type engineSet struct {
	t  *testing.T
	ms []*machine
}

// newEngineSet builds the machines, maps the data pages, seeds every
// register but sp, s0 and s1 with a distinct pattern, and lays out
// code. s0 points at the read-write page, s1 at the read-only one.
func newEngineSet(t *testing.T, code ...isa.Inst) *engineSet {
	t.Helper()
	s := &engineSet{t: t}
	for _, eng := range engines {
		cfg := DefaultConfig()
		cfg.NoFastPath, cfg.NoBlocks = eng.noFastPath, eng.noBlks
		m := newMachine(t, cfg)
		m.map1(dataVA, dataPA, mmu.PTERead|mmu.PTEWrite, 0)
		m.map1(roVA, roPA, mmu.PTERead, dataKey)
		for _, pa := range []uint64{dataPA, roPA} {
			for off := uint64(0); off < mem.PageSize; off += 8 {
				if err := m.phys.WriteUint(pa+off, 0x8899aabbccddeeff^off*0x0101010101010101, 8); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			m.cpu.Regs[r] = 0x9e3779b97f4a7c15 * uint64(r)
		}
		m.cpu.Regs[isa.SP] = 0x7f000 + mem.PageSize
		m.cpu.Regs[isa.S0] = dataVA
		m.cpu.Regs[isa.S1] = roVA
		m.emit(code...)
		s.ms = append(s.ms, m)
	}
	return s
}

// each applies fn to every machine.
func (s *engineSet) each(fn func(m *machine)) {
	for _, m := range s.ms {
		fn(m)
	}
}

// run runs every machine until its next trap and checks that all
// engines agree on the trap, the whole core state and memory.
func (s *engineSet) run(label string) *Trap {
	s.t.Helper()
	var traps []*Trap
	for _, m := range s.ms {
		trap := m.cpu.Run(10_000)
		if trap == nil {
			s.t.Fatalf("%s: no trap within the budget", label)
		}
		traps = append(traps, trap)
	}
	s.check(label, traps)
	return traps[0]
}

// check compares every machine with the reference: trap, registers,
// PC, counters, statistics, TLB and cache state, and memory.
func (s *engineSet) check(label string, traps []*Trap) {
	s.t.Helper()
	ref := s.ms[0]
	for i, m := range s.ms[1:] {
		name := engines[i+1].name
		if !reflect.DeepEqual(traps[i+1], traps[0]) {
			s.t.Fatalf("%s: %s trap %v, interp %v", label, name, traps[i+1], traps[0])
		}
		got, want := m.cpu.State(), ref.cpu.State()
		if got.Regs != want.Regs || got.PC != want.PC {
			s.t.Fatalf("%s: %s regs/pc differ\n%s: pc %#x %x\ninterp: pc %#x %x", label, name, name, got.PC, got.Regs, want.PC, want.Regs)
		}
		if got.Cycles != want.Cycles || got.Instret != want.Instret || got.Stats != want.Stats {
			s.t.Fatalf("%s: %s counters differ\n%s: cycles %d instret %d %+v\ninterp: cycles %d instret %d %+v",
				label, name, name, got.Cycles, got.Instret, got.Stats, want.Cycles, want.Instret, want.Stats)
		}
		if !reflect.DeepEqual(got, want) {
			s.t.Fatalf("%s: %s TLB or cache state differs\n%s: %+v %+v\ninterp: %+v %+v",
				label, name, name, got.DMMU.Stats, got.DCache.Stats, want.DMMU.Stats, want.DCache.Stats)
		}
		if memSum(m.phys) != memSum(ref.phys) {
			s.t.Fatalf("%s: %s physical memory differs", label, name)
		}
	}
}

// memSum checksums every allocated page in page-number order.
func memSum(phys *mem.Physical) uint64 {
	sum := fnv.New64a()
	page := make([]byte, mem.PageSize)
	for _, pn := range phys.PageNumbers() {
		if err := phys.Read(pn<<mem.PageShift, page); err != nil {
			panic(err)
		}
		binary.Write(sum, binary.LittleEndian, pn)
		sum.Write(page)
	}
	return sum.Sum64()
}

// operandPairs feed rs1 (a0) and rs2 (a1): signed/unsigned order
// flips, equal values, zero and overflowing divisors, shift amounts
// past 31 and 63.
var operandPairs = [][2]uint64{
	{0x8000000012345678, 0x13},
	{5, 5},
	{3, 0xfffffffffffffff0},
	{0xffffffff, 0x21},
	{0xfffffffffffffff9, 0x7fffffffffffffff},
	{0x8000000000000000, 0xffffffffffffffff},
	{7, 0},
}

// TestBlockOpsMatchStep runs every opcode the translator puts in a
// block as a one-block program (then ECALL) on each engine, from the
// same registers and memory, and requires the block engine's uop and
// the fast engine's Step to match the interpreter exactly: registers,
// PC, cycles, retire count, statistics, TLB and cache state, memory.
// Loads and stores touch one line twice, so the second access takes
// the D-side line memo.
func TestBlockOpsMatchStep(t *testing.T) {
	a0, a1, a2, a3, a5 := isa.A0, isa.A1, isa.A2, isa.A3, isa.A5
	var cases []struct {
		name string
		code []isa.Inst
	}
	add := func(name string, code ...isa.Inst) {
		cases = append(cases, struct {
			name string
			code []isa.Inst
		}{name, append(code, isa.Inst{Op: isa.ECALL})})
	}
	for _, op := range []isa.Op{
		isa.ADD, isa.SUB, isa.SLL, isa.SLT, isa.SLTU, isa.XOR, isa.SRL, isa.SRA, isa.OR, isa.AND,
		isa.ADDW, isa.SUBW, isa.SLLW, isa.SRLW, isa.SRAW,
		isa.MUL, isa.MULH, isa.MULHSU, isa.MULHU, isa.MULW,
		isa.DIV, isa.DIVU, isa.REM, isa.REMU, isa.DIVW, isa.DIVUW, isa.REMW, isa.REMUW,
	} {
		add(op.String(), isa.Inst{Op: op, Rd: a2, Rs1: a0, Rs2: a1})
	}
	for _, op := range []isa.Op{isa.ADDI, isa.SLTI, isa.SLTIU, isa.XORI, isa.ORI, isa.ANDI, isa.ADDIW} {
		for _, imm := range []int64{-7, 0x123} {
			add(fmt.Sprintf("%s/%d", op, imm), isa.Inst{Op: op, Rd: a2, Rs1: a0, Imm: imm})
		}
	}
	for _, op := range []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI, isa.SLLIW, isa.SRLIW, isa.SRAIW} {
		for _, sh := range []int64{3, 17, 37} {
			if sh > 31 && (op == isa.SLLIW || op == isa.SRLIW || op == isa.SRAIW) {
				continue
			}
			add(fmt.Sprintf("%s/%d", op, sh), isa.Inst{Op: op, Rd: a2, Rs1: a0, Imm: sh})
		}
	}
	for _, op := range []isa.Op{isa.LUI, isa.AUIPC} {
		for _, imm := range []int64{0x12345000, -0x12345000} {
			add(fmt.Sprintf("%s/%#x", op, imm), isa.Inst{Op: op, Rd: a2, Imm: imm})
		}
	}
	for _, op := range []isa.Op{isa.LB, isa.LH, isa.LW, isa.LD, isa.LBU, isa.LHU, isa.LWU} {
		n, _ := op.LoadWidth()
		add(op.String(),
			isa.Inst{Op: op, Rd: a2, Rs1: isa.S0, Imm: 8},
			isa.Inst{Op: op, Rd: a3, Rs1: isa.S0, Imm: int64(24 - n)})
	}
	for _, op := range []isa.Op{isa.LBRO, isa.LHRO, isa.LWRO, isa.LDRO} {
		add(op.String(),
			isa.Inst{Op: op, Rd: a2, Rs1: isa.S1, Key: dataKey},
			isa.Inst{Op: op, Rd: a3, Rs1: isa.S1, Key: dataKey})
	}
	for _, op := range []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD} {
		add(op.String(),
			isa.Inst{Op: op, Rs1: isa.S0, Rs2: a0, Imm: 16},
			isa.Inst{Op: op, Rs1: isa.S0, Rs2: a1, Imm: 32},
			isa.Inst{Op: isa.LD, Rd: a2, Rs1: isa.S0, Imm: 16})
	}
	// Control transfers: the taken target (pc+12) and the fall-through
	// (pc+4) each leave a distinct mark in a4 before their ECALL.
	mark := func(v int64) isa.Inst { return isa.Inst{Op: isa.ADDI, Rd: isa.A4, Rs1: isa.Zero, Imm: v} }
	for _, op := range []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU} {
		add(op.String(), isa.Inst{Op: op, Rs1: a0, Rs2: a1, Imm: 12}, mark(1), isa.Inst{Op: isa.ECALL}, mark(2))
	}
	add("jal", isa.Inst{Op: isa.JAL, Rd: isa.RA, Imm: 12}, mark(1), isa.Inst{Op: isa.ECALL}, mark(2))
	add("jal/x0", isa.Inst{Op: isa.JAL, Rd: isa.Zero, Imm: 12}, mark(1), isa.Inst{Op: isa.ECALL}, mark(2))
	// a5 is set to the text start + 13 below: an odd target whose low
	// bit JALR clears, landing on the mark at +12.
	add("jalr/odd", isa.Inst{Op: isa.JALR, Rd: isa.RA, Rs1: a5}, mark(1), isa.Inst{Op: isa.ECALL}, mark(2))
	add("jalr/x0", isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: a5, Imm: -1}, mark(1), isa.Inst{Op: isa.ECALL}, mark(2))
	add("fence", isa.Inst{Op: isa.FENCE})
	add("add/x0", isa.Inst{Op: isa.ADD, Rd: isa.Zero, Rs1: a0, Rs2: a1})
	add("addi/x0", isa.Inst{Op: isa.ADDI, Rd: isa.Zero, Rs1: a0, Imm: 9})
	add("mul/x0", isa.Inst{Op: isa.MUL, Rd: isa.Zero, Rs1: a0, Rs2: a1})
	add("div/x0", isa.Inst{Op: isa.DIV, Rd: isa.Zero, Rs1: a0, Rs2: a1})
	add("ld/x0", isa.Inst{Op: isa.LD, Rd: isa.Zero, Rs1: isa.S0, Imm: 8},
		isa.Inst{Op: isa.LD, Rd: isa.Zero, Rs1: isa.S0, Imm: 16})
	// A block spanning three I-cache lines, mixing kinds, so line
	// leaders settle their runs mid-block.
	var long []isa.Inst
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			long = append(long, isa.Inst{Op: isa.ADDI, Rd: a0, Rs1: a0, Imm: 3})
		case 1:
			long = append(long, isa.Inst{Op: isa.SD, Rs1: isa.S0, Rs2: a0, Imm: int64(8 * i)})
		case 2:
			long = append(long, isa.Inst{Op: isa.LW, Rd: a2, Rs1: isa.S0, Imm: int64(8*i - 4)})
		case 3:
			long = append(long, isa.Inst{Op: isa.XOR, Rd: a1, Rs1: a1, Rs2: a2})
		}
	}
	add("line leaders", long...)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range operandPairs {
				s := newEngineSet(t, tc.code...)
				s.each(func(m *machine) {
					m.cpu.Regs[a0], m.cpu.Regs[a1] = p[0], p[1]
					m.cpu.Regs[a5] = m.textVA + 13
				})
				trap := s.run(fmt.Sprintf("a0=%#x a1=%#x", p[0], p[1]))
				if trap.Kind != TrapECall {
					t.Fatalf("a0=%#x a1=%#x: trap %v, want ecall", p[0], p[1], trap)
				}
			}
		})
	}
}

// TestBlockEngineRunsUops guards the test above: its programs must
// actually reach the block engine's loop rather than fall back to
// Step, which would make the comparison vacuous.
func TestBlockEngineRunsUops(t *testing.T) {
	s := newEngineSet(t,
		isa.Inst{Op: isa.LD, Rd: isa.A2, Rs1: isa.S0, Imm: 8},
		isa.Inst{Op: isa.ADD, Rd: isa.A2, Rs1: isa.A2, Rs2: isa.A1},
		isa.Inst{Op: isa.ECALL})
	s.run("run")
	m := s.ms[len(s.ms)-1]
	b := m.cpu.blocks[m.textVA]
	if b == nil || len(b.ops) != 2 || b.ops[0].kind != uLoad || b.ops[1].kind != uAdd {
		t.Fatalf("block engine did not lower the program: %+v", b)
	}
}

// TestSliceBoundInsideBlock runs a loop whose body is one long block
// under a poll stride that ends inside it at a different offset each
// slice. Every engine must match the interpreter, and the block engine
// must run the prefix up to each bound itself: no instruction reaches
// Step, and each slice boundary translates at most one new block, the
// tail the next slice resumes at.
func TestSliceBoundInsideBlock(t *testing.T) {
	const bodyLen = 100
	var body []isa.Inst
	for i := 0; i < bodyLen; i++ {
		switch i % 4 {
		case 0:
			body = append(body, isa.Inst{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.A0, Imm: 3})
		case 1:
			body = append(body, isa.Inst{Op: isa.SD, Rs1: isa.S0, Rs2: isa.A0, Imm: int64(8 * i)})
		case 2:
			body = append(body, isa.Inst{Op: isa.LW, Rd: isa.A2, Rs1: isa.S0, Imm: int64(8*i - 4)})
		case 3:
			body = append(body, isa.Inst{Op: isa.XOR, Rd: isa.A3, Rs1: isa.A3, Rs2: isa.A2})
		}
	}
	// a1 is seeded nonzero and never written: the loop never ends.
	body = append(body, isa.Inst{Op: isa.BNE, Rs1: isa.A1, Rs2: isa.Zero, Imm: -4 * bodyLen})
	s := newEngineSet(t, body...)
	const stride, total = 997, 40*997 + 500
	polls := make([]int, len(s.ms))
	for i, m := range s.ms {
		stop := func() bool { polls[i]++; return false }
		if trap := m.cpu.RunInterruptible(total, stride, stop); trap != nil {
			t.Fatalf("%s: trap %v", engines[i].name, trap)
		}
	}
	s.check("sliced run", make([]*Trap, len(s.ms)))
	m, boundaries := s.ms[len(s.ms)-1], polls[len(s.ms)-1]
	if boundaries < 40 {
		t.Fatalf("%d slice boundaries, want at least 40", boundaries)
	}
	if n := m.cpu.decodedSlots(); n != 0 {
		t.Errorf("%d instruction slots went through Step", n)
	}
	if n := m.cpu.translatedBlocks(); n > 1+boundaries {
		t.Errorf("%d blocks translated over %d slice boundaries, want at most %d", n, boundaries, 1+boundaries)
	}
}

// TestUopSize keeps the lowered form compact: a translated block costs
// at most 32 bytes of uops per instruction.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 32 {
		t.Fatalf("uop is %d bytes, want at most 32", n)
	}
}

// memoEvents are operations between two accesses to one line that
// must send the second access back to the full path (or, where the
// first access's outcome still stands, at least leave every engine in
// the same state).
var memoEvents = []struct {
	name string
	fn   func(t *testing.T, m *machine)
}{
	{"Flush", func(t *testing.T, m *machine) { m.cpu.FlushTLB() }},
	{"FlushPage", func(t *testing.T, m *machine) { m.cpu.FlushTLBPage(dataVA) }},
	{"SetRoot", func(t *testing.T, m *machine) { m.cpu.SetPageTableRoot(m.mapper.Root()) }},
	{"remap", func(t *testing.T, m *machine) {
		// Point the page at fresh memory; only the flush makes the
		// TLB see it.
		m.map1(dataVA, 0x702000, mmu.PTERead|mmu.PTEWrite, 0)
		m.cpu.FlushTLBPage(dataVA)
	}},
	{"CorruptTLB", func(t *testing.T, m *machine) {
		if !m.cpu.DataMMU().CorruptTLB(dataVA, func(e *mmu.TLBEntry) { e.Perms &^= mmu.PTEWrite }) {
			t.Fatal("no TLB entry to corrupt")
		}
	}},
	{"MMU SetState", func(t *testing.T, m *machine) {
		// Rewind to a TLB that never held the page.
		d := m.cpu.DataMMU()
		st := d.State()
		for i := range st.TLB {
			st.TLB[i].Valid = false
		}
		if err := d.SetState(st); err != nil {
			t.Fatal(err)
		}
	}},
	{"ZeroPage", func(t *testing.T, m *machine) {
		if err := m.phys.ZeroPage(dataPA); err != nil {
			t.Fatal(err)
		}
	}},
	{"RestorePages", func(t *testing.T, m *machine) {
		snap := m.phys.SnapshotPages()
		if err := m.phys.WriteUint(dataPA+8, 0x5151, 8); err != nil {
			t.Fatal(err)
		}
		if err := m.phys.RestorePages(snap); err != nil {
			t.Fatal(err)
		}
	}},
	{"evict", func(t *testing.T, m *machine) {
		// 8 lines of the same set (one set per 4 KiB) push it out.
		for k := uint64(1); k <= 8; k++ {
			m.cpu.DataCache().Access(dataPA + 8 + k*mem.PageSize)
		}
	}},
	{"DropLine", func(t *testing.T, m *machine) {
		if !m.cpu.DataCache().DropLine(dataPA + 8) {
			t.Fatal("line not cached")
		}
	}},
	{"cache Flush", func(t *testing.T, m *machine) { m.cpu.DataCache().Flush() }},
	{"cache SetState", func(t *testing.T, m *machine) {
		// Rewind to a cache that never held the line.
		dc := m.cpu.DataCache()
		st := dc.State()
		for i := range st.Lines {
			st.Lines[i].Valid = false
		}
		if err := dc.SetState(st); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestMemoInvalidation puts each memoEvent between two accesses to one
// line — load/load, store/store, store/load and ROLoad/ROLoad — and
// requires every engine to match the interpreter after each access.
// Without the generation check the TLB events, without the tag check
// the cache events, and without the liveness check ZeroPage and
// RestorePages leave a stale hit behind.
func TestMemoInvalidation(t *testing.T) {
	pairs := []struct {
		name          string
		first, second isa.Inst
	}{
		{"load/load", isa.Inst{Op: isa.LD, Rd: isa.A2, Rs1: isa.S0, Imm: 8}, isa.Inst{Op: isa.LD, Rd: isa.A3, Rs1: isa.S0, Imm: 8}},
		{"store/store", isa.Inst{Op: isa.SD, Rs1: isa.S0, Rs2: isa.A0, Imm: 8}, isa.Inst{Op: isa.SW, Rs1: isa.S0, Rs2: isa.A1, Imm: 12}},
		{"store/load", isa.Inst{Op: isa.SD, Rs1: isa.S0, Rs2: isa.A0, Imm: 8}, isa.Inst{Op: isa.LD, Rd: isa.A3, Rs1: isa.S0, Imm: 8}},
	}
	for _, ev := range memoEvents {
		for _, p := range pairs {
			t.Run(ev.name+"/"+p.name, func(t *testing.T) {
				s := newEngineSet(t, p.first, isa.Inst{Op: isa.ECALL}, p.second, isa.Inst{Op: isa.ECALL})
				s.run("first")
				s.each(func(m *machine) { ev.fn(t, m) })
				s.run("second")
			})
		}
	}
}

// TestMemoROLoadRekey: a ROLoad passes, the kernel rekeys the page and
// flushes its translation, and the same ROLoad must now fault on every
// engine.
func TestMemoROLoadRekey(t *testing.T) {
	ld := isa.Inst{Op: isa.LDRO, Rd: isa.A2, Rs1: isa.S1, Key: dataKey}
	s := newEngineSet(t, ld, isa.Inst{Op: isa.ECALL}, ld, isa.Inst{Op: isa.ECALL})
	s.run("before rekey")
	s.each(func(m *machine) {
		if err := m.mapper.Protect(roVA, mmu.PTERead, dataKey+1); err != nil {
			t.Fatal(err)
		}
		m.cpu.FlushTLBPage(roVA)
	})
	if trap := s.run("after rekey"); trap.Kind != TrapPageFault || !trap.Fault.ROLoad {
		t.Fatalf("stale key not refused: %v", trap)
	}
}

// TestMemoMergedOutcomes: outcomes that passed on one line merge, but
// never grant an access kind that did not pass. On the read-write
// page a load and a store pass and a ROLoad must still fault (the page
// is writable); on the keyed read-only page a load and a ROLoad with
// the right key pass, and a ROLoad with a wrong key and a store must
// still fault.
func TestMemoMergedOutcomes(t *testing.T) {
	ecall := isa.Inst{Op: isa.ECALL}
	for _, tc := range []struct {
		name string
		code []isa.Inst
	}{
		{"rw/roload", []isa.Inst{
			{Op: isa.LD, Rd: isa.A2, Rs1: isa.S0},
			{Op: isa.SD, Rs1: isa.S0, Rs2: isa.A0, Imm: 8},
			{Op: isa.LDRO, Rd: isa.A3, Rs1: isa.S0, Key: 0}, ecall}},
		{"ro/wrong key", []isa.Inst{
			{Op: isa.LD, Rd: isa.A2, Rs1: isa.S1},
			{Op: isa.LDRO, Rd: isa.A3, Rs1: isa.S1, Key: dataKey},
			{Op: isa.LDRO, Rd: isa.A4, Rs1: isa.S1, Key: dataKey + 1}, ecall}},
		{"ro/store", []isa.Inst{
			{Op: isa.LDRO, Rd: isa.A3, Rs1: isa.S1, Key: dataKey},
			{Op: isa.LD, Rd: isa.A2, Rs1: isa.S1},
			{Op: isa.SD, Rs1: isa.S1, Rs2: isa.A0}, ecall}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newEngineSet(t, tc.code...)
			if trap := s.run("run"); trap.Kind != TrapPageFault {
				t.Fatalf("trap %v, want the third access's page fault", trap)
			}
		})
	}
}

// TestMemoBypassedUnderProbe: a probe attached between two accesses to
// one line must see the second access's TLB and cache events on every
// engine, since only the full path emits them.
func TestMemoBypassedUnderProbe(t *testing.T) {
	ld := isa.Inst{Op: isa.LD, Rd: isa.A2, Rs1: isa.S0, Imm: 8}
	s := newEngineSet(t, ld, isa.Inst{Op: isa.ECALL}, ld, isa.Inst{Op: isa.ECALL})
	s.run("first")
	logs := make([]*eventLog, len(s.ms))
	for i, m := range s.ms {
		logs[i] = &eventLog{}
		m.cpu.SetProbe(logs[i])
	}
	s.run("second")
	for i, l := range logs[1:] {
		if !reflect.DeepEqual(l.events, logs[0].events) {
			t.Fatalf("%s events differ\n%s: %+v\ninterp: %+v", engines[i+1].name, engines[i+1].name, l.events, logs[0].events)
		}
	}
	var dside int
	for _, e := range logs[0].events {
		if e.Side == obs.SideD && (e.Kind == obs.KindTLB || e.Kind == obs.KindCache) {
			dside++
		}
	}
	if dside != 2 {
		t.Fatalf("%d D-side TLB/cache events, want 2", dside)
	}
}

// BenchmarkBlockLoadStore runs one warmed block of mixed loads,
// stores and ADDIs, every access a D-side line memo hit.
func BenchmarkBlockLoadStore(b *testing.B) {
	m := newMachine(b, DefaultConfig())
	m.map1(dataVA, dataPA, mmu.PTERead|mmu.PTEWrite, 0)
	m.cpu.Regs[isa.S0] = dataVA
	var code []isa.Inst
	for i := int64(0); i < 8; i++ {
		code = append(code,
			isa.Inst{Op: isa.LD, Rd: isa.A0, Rs1: isa.S0, Imm: 8 * i},
			isa.Inst{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.A0, Imm: 1},
			isa.Inst{Op: isa.SD, Rs1: isa.S0, Rs2: isa.A0, Imm: 8 * i},
			isa.Inst{Op: isa.ADDI, Rd: isa.A1, Rs1: isa.A1, Imm: 1})
	}
	m.emit(code...)
	m.emit(isa.Inst{Op: isa.JAL, Rd: isa.Zero, Imm: -int64(4 * len(code))})
	n := uint64(len(code) + 1)
	m.cpu.Run(100 * n) // translate and fill the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.cpu.Run(n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*n), "ns/inst")
}
