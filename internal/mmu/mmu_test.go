package mmu

import (
	"testing"
	"testing/quick"

	"roload/internal/mem"
)

// bumpAlloc is a trivial frame allocator for tests.
type bumpAlloc struct {
	next uint64
	end  uint64
}

func (b *bumpAlloc) AllocFrame() (uint64, error) {
	pa := b.next
	b.next += mem.PageSize
	return pa, nil
}

func testSetup(t *testing.T, cfg Config) (*mem.Physical, *Mapper, *MMU) {
	t.Helper()
	phys := mem.NewPhysical(64 << 20)
	alloc := &bumpAlloc{next: 0x100000}
	mapper, err := NewMapper(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	m := New(phys, cfg)
	m.SetRoot(mapper.Root())
	return phys, mapper, m
}

func TestMapAndTranslate(t *testing.T) {
	phys, mapper, m := testSetup(t, DefaultConfig())
	const va, pa = 0x400000, 0x200000
	if err := mapper.Map(va, pa, PTERead|PTEWrite|PTEUser, 0); err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteUint(pa+8, 0xdeadbeef, 8); err != nil {
		t.Fatal(err)
	}
	got, miss, fault := m.Translate(va+8, Read, 0)
	if fault != nil {
		t.Fatalf("translate: %v", fault)
	}
	if !miss {
		t.Error("first access should miss the TLB")
	}
	if got != pa+8 {
		t.Errorf("pa = %#x, want %#x", got, pa+8)
	}
	// Second access hits.
	_, miss, fault = m.Translate(va+16, Read, 0)
	if fault != nil || miss {
		t.Errorf("second access: miss=%v fault=%v, want hit", miss, fault)
	}
	st := m.Stats()
	if st.TLBHits != 1 || st.TLBMisses != 1 || st.PageWalks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnmappedFaults(t *testing.T) {
	_, _, m := testSetup(t, DefaultConfig())
	cases := []struct {
		at    Access
		cause FaultCause
	}{
		{Read, FaultLoadPage},
		{Write, FaultStorePage},
		{Exec, FaultInstPage},
		{ROLoadRead, FaultLoadPage},
	}
	for _, c := range cases {
		_, _, fault := m.Translate(0x999000, c.at, 1)
		if fault == nil {
			t.Fatalf("%v: no fault for unmapped page", c.at)
		}
		if fault.Cause != c.cause {
			t.Errorf("%v: cause = %v, want %v", c.at, fault.Cause, c.cause)
		}
		if !fault.Unmapped {
			t.Errorf("%v: Unmapped not set", c.at)
		}
		if (c.at == ROLoadRead) != fault.ROLoad {
			t.Errorf("%v: ROLoad flag = %v", c.at, fault.ROLoad)
		}
	}
}

func TestPermissionChecks(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	mustMap := func(va uint64, perms uint64, key uint16) {
		t.Helper()
		if err := mapper.Map(va, va, perms, key); err != nil {
			t.Fatal(err)
		}
	}
	mustMap(0x10000, PTERead, 0)            // read-only, key 0
	mustMap(0x11000, PTERead|PTEWrite, 0)   // writable
	mustMap(0x12000, PTEExec|PTERead, 0)    // text
	mustMap(0x13000, PTERead, 111)          // read-only, key 111
	mustMap(0x14000, PTERead|PTEWrite, 111) // writable WITH key (still must fault for ld.ro)
	mustMap(0x15000, PTEWrite, 0)           // write-only

	type tc struct {
		name    string
		va      uint64
		at      Access
		key     uint16
		wantOK  bool
		roFault bool
	}
	cases := []tc{
		{"read from RO page", 0x10000, Read, 0, true, false},
		{"write to RO page", 0x10000, Write, 0, false, false},
		{"write to RW page", 0x11000, Write, 0, true, false},
		{"exec from text", 0x12000, Exec, 0, true, false},
		{"exec from data", 0x11000, Exec, 0, false, false},
		{"read from write-only page", 0x15000, Read, 0, false, false},

		// The ROLoad semantics (paper Section II-E).
		{"ld.ro matching key", 0x13000, ROLoadRead, 111, true, false},
		{"ld.ro wrong key", 0x13000, ROLoadRead, 222, false, true},
		{"ld.ro key 0 page with key 0", 0x10000, ROLoadRead, 0, true, false},
		{"ld.ro from writable page with matching key", 0x14000, ROLoadRead, 111, false, true},
		{"ld.ro from writable key-0 page", 0x11000, ROLoadRead, 0, false, true},
		{"regular read from keyed page", 0x13000, Read, 0, true, false},
		{"regular write to keyed RO page", 0x13000, Write, 0, false, false},
	}
	for _, c := range cases {
		_, _, fault := m.Translate(c.va, c.at, c.key)
		if (fault == nil) != c.wantOK {
			t.Errorf("%s: fault = %v, wantOK %v", c.name, fault, c.wantOK)
			continue
		}
		if fault != nil && fault.ROLoad != c.roFault {
			t.Errorf("%s: ROLoad flag = %v, want %v", c.name, fault.ROLoad, c.roFault)
		}
	}
}

func TestROLoadFaultDetails(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x20000, 0x20000, PTERead, 42); err != nil {
		t.Fatal(err)
	}
	_, _, fault := m.Translate(0x20008, ROLoadRead, 7)
	if fault == nil {
		t.Fatal("expected fault")
	}
	if fault.WantKey != 7 || fault.GotKey != 42 {
		t.Errorf("keys = want %d got %d", fault.WantKey, fault.GotKey)
	}
	if fault.NotReadOnly {
		t.Error("page was read-only; NotReadOnly must be false")
	}
	if fault.Cause != FaultLoadPage {
		t.Errorf("cause = %v; hardware must raise a load page fault", fault.Cause)
	}
}

// The baseline (unmodified) MMU must treat ROLoadRead like a plain
// read: on stock hardware the encoding wouldn't even decode, but the
// MMU-level model needs to be inert when disabled so the
// processor-modified vs baseline system comparison isolates the check.
func TestROLoadDisabled(t *testing.T) {
	_, mapper, m := testSetup(t, Config{TLBEntries: 32, ROLoadEnabled: false})
	if err := mapper.Map(0x20000, 0x20000, PTERead|PTEWrite, 0); err != nil {
		t.Fatal(err)
	}
	_, _, fault := m.Translate(0x20000, ROLoadRead, 99)
	if fault != nil {
		t.Fatalf("disabled ROLoad check still faulted: %v", fault)
	}
}

func TestProtectChangesKeyAndPerms(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x30000, 0x30000, PTERead|PTEWrite, 0); err != nil {
		t.Fatal(err)
	}
	// Writable: ld.ro must fault.
	if _, _, fault := m.Translate(0x30000, ROLoadRead, 5); fault == nil {
		t.Fatal("ld.ro from writable page must fault")
	}
	// mprotect to read-only with key 5 (the paper's deployment flow:
	// write the allowlist, then seal the page).
	if err := mapper.Protect(0x30000, PTERead, 5); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(0x30000)
	if _, _, fault := m.Translate(0x30000, ROLoadRead, 5); fault != nil {
		t.Fatalf("ld.ro after sealing: %v", fault)
	}
	// Writes must now fault.
	m.FlushPage(0x30000)
	if _, _, fault := m.Translate(0x30000, Write, 0); fault == nil {
		t.Fatal("write to sealed page must fault")
	}
}

func TestUnmap(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x40000, 0x40000, PTERead, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := m.Translate(0x40000, Read, 0); fault != nil {
		t.Fatal(fault)
	}
	if err := mapper.Unmap(0x40000); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(0x40000)
	if _, _, fault := m.Translate(0x40000, Read, 0); fault == nil {
		t.Fatal("read after unmap must fault")
	}
	if err := mapper.Unmap(0x40000); err == nil {
		t.Fatal("double unmap must error")
	}
}

func TestMapperErrors(t *testing.T) {
	_, mapper, _ := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x1001, 0x2000, PTERead, 0); err == nil {
		t.Error("unaligned va accepted")
	}
	if err := mapper.Map(0x1000, 0x2001, PTERead, 0); err == nil {
		t.Error("unaligned pa accepted")
	}
	if err := mapper.Map(0x1000, 0x2000, PTERead, 1<<10); err == nil {
		t.Error("oversized key accepted")
	}
	if err := mapper.Map(1<<40, 0x2000, PTERead, 0); err == nil {
		t.Error("non-canonical va accepted")
	}
	if err := mapper.Protect(0xdead000, PTERead, 0); err == nil {
		t.Error("protect of unmapped page accepted")
	}
	if err := mapper.Protect(0x1000, PTERead, 1<<10); err == nil {
		t.Error("protect with oversized key accepted")
	}
}

func TestPTEHelpers(t *testing.T) {
	pte := MakePTE(0x12345, PTERead|PTEExec, 999)
	if PTEKey(pte) != 999 {
		t.Errorf("key = %d, want 999", PTEKey(pte))
	}
	if PTEPPN(pte) != 0x12345 {
		t.Errorf("ppn = %#x, want 0x12345", PTEPPN(pte))
	}
	if pte&PTEValid == 0 || pte&PTERead == 0 || pte&PTEExec == 0 || pte&PTEWrite != 0 {
		t.Errorf("perm bits wrong: %#x", pte)
	}
}

// Property: the PTE key field is fully reversible for any 10-bit key
// and never perturbs the PPN or permission bits.
func TestQuickPTEKeyRoundTrip(t *testing.T) {
	f := func(ppn uint64, key uint16, perms uint8) bool {
		ppn &= ptePPNMask
		key &= pteKeyMask
		p := uint64(perms) & (PTERead | PTEWrite | PTEExec | PTEUser)
		pte := MakePTE(ppn, p, key)
		return PTEKey(pte) == key && PTEPPN(pte) == ppn &&
			pte&(PTERead|PTEWrite|PTEExec|PTEUser) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: translation of a mapped page always returns the mapped
// frame with the page offset preserved.
func TestQuickTranslateOffsets(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x50000, 0x80000, PTERead, 0); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16) bool {
		o := uint64(off) % mem.PageSize
		pa, _, fault := m.Translate(0x50000+o, Read, 0)
		return fault == nil && pa == 0x80000+o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBEviction(t *testing.T) {
	_, mapper, m := testSetup(t, Config{TLBEntries: 4, ROLoadEnabled: true})
	for i := uint64(0); i < 8; i++ {
		if err := mapper.Map(0x60000+i*mem.PageSize, 0x60000+i*mem.PageSize, PTERead, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 8 pages through a 4-entry TLB: every access misses first
	// time; re-touching the first pages must miss again after eviction.
	for i := uint64(0); i < 8; i++ {
		if _, _, fault := m.Translate(0x60000+i*mem.PageSize, Read, 0); fault != nil {
			t.Fatal(fault)
		}
	}
	m.ResetStats()
	if _, _, fault := m.Translate(0x60000, Read, 0); fault != nil {
		t.Fatal(fault)
	}
	if m.Stats().TLBMisses != 1 {
		t.Errorf("expected eviction-induced miss, stats = %+v", m.Stats())
	}
}

func TestTLBFlushPage(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(TLBEntry{VPN: 5, PPN: 10, Valid: true})
	tlb.Insert(TLBEntry{VPN: 6, PPN: 11, Valid: true})
	tlb.FlushPage(5 << 12)
	if _, ok := tlb.Lookup(5 << 12); ok {
		t.Error("entry survived FlushPage")
	}
	if _, ok := tlb.Lookup(6 << 12); !ok {
		t.Error("unrelated entry was flushed")
	}
}

func TestTLBInsertReplacesSameVPN(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(TLBEntry{VPN: 5, PPN: 10, Key: 1, Valid: true})
	tlb.Insert(TLBEntry{VPN: 5, PPN: 10, Key: 2, Valid: true})
	e, ok := tlb.Lookup(5 << 12)
	if !ok || e.Key != 2 {
		t.Errorf("lookup = %+v, %v; want key 2", e, ok)
	}
	n := 0
	for _, e := range tlb.entries {
		if e.Valid {
			n++
		}
	}
	if n != 1 {
		t.Errorf("duplicate entries after same-VPN insert: %d valid", n)
	}
}

func TestSetRootFlushes(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x70000, 0x70000, PTERead, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := m.Translate(0x70000, Read, 0); fault != nil {
		t.Fatal(fault)
	}
	m.SetRoot(mapper.Root())
	m.ResetStats()
	if _, _, fault := m.Translate(0x70000, Read, 0); fault != nil {
		t.Fatal(fault)
	}
	if m.Stats().TLBMisses != 1 {
		t.Error("SetRoot did not flush the TLB")
	}
}

// TestDataHitMatchesTranslate pins the MMU side of the CPU's D-side
// line memo to the full lookup. Twin MMUs share one physical memory.
// For every page permission and data access kind, the first access
// translates on both twins, and the memo twin notes its outcome and
// Gen. While Gen is unchanged, a repeat of an access that passed must
// be, on the full twin, a TLB hit that passes at the same PA: exactly
// the one BumpTLBHits the memo makes in its place. A repeat of one
// that failed must fail again. The ROLoad key is part of the outcome,
// so a wrong key never passes.
func TestDataHitMatchesTranslate(t *testing.T) {
	const k = 7
	pages := []struct {
		name  string
		perms uint64
		key   uint16
	}{
		{"R", PTERead, 0},
		{"RW", PTERead | PTEWrite, 0},
		{"RX", PTERead | PTEExec, 0},
		{"X", PTEExec, 0},
		{"R key k", PTERead, k},
	}
	accesses := []struct {
		name string
		at   Access
		key  uint16
	}{
		{"read", Read, 0},
		{"write", Write, 0},
		{"ld.ro key k", ROLoadRead, k},
		{"ld.ro key k+1", ROLoadRead, k + 1}, // wrong for every page
		{"ld.ro key 0", ROLoadRead, 0},       // wrong for the keyed page
	}
	for pi, pg := range pages {
		for _, ac := range accesses {
			t.Run(pg.name+"/"+ac.name, func(t *testing.T) {
				phys, mapper, hit := testSetup(t, DefaultConfig())
				full := New(phys, DefaultConfig())
				full.SetRoot(mapper.Root())
				va := uint64(0x40000 + pi*mem.PageSize)
				pa := uint64(0x200000 + pi*mem.PageSize)
				if err := mapper.Map(va, pa, pg.perms, pg.key); err != nil {
					t.Fatal(err)
				}
				// The first access walks and fills both TLBs, whether
				// or not it passes.
				_, _, first := hit.Translate(va, ac.at, ac.key)
				full.Translate(va, ac.at, ac.key)
				gen := hit.Gen()
				const off = 8
				for round := 0; round < 2; round++ {
					gotPA, miss, fault := full.Translate(va+off, ac.at, ac.key)
					if (fault == nil) != (first == nil) {
						t.Fatalf("round %d: first access fault %v, repeat fault %v", round, first, fault)
					}
					if first == nil {
						if miss || gotPA != pa+off {
							t.Fatalf("round %d: repeat pa %#x miss %v, want a hit at %#x", round, gotPA, miss, pa+off)
						}
						hit.BumpTLBHits(1)
					} else {
						hit.Translate(va+off, ac.at, ac.key)
					}
					if hit.Gen() != gen {
						t.Fatalf("round %d: Gen moved %d -> %d on a TLB hit", round, gen, hit.Gen())
					}
					if hit.Stats() != full.Stats() {
						t.Fatalf("round %d: stats %+v, twin %+v", round, hit.Stats(), full.Stats())
					}
				}
			})
		}
	}
}

// TestGenTracksTLBChanges: Gen must change on every operation that can
// change the TLB's contents, and stay put across hits and faulting
// checks, which change nothing.
func TestGenTracksTLBChanges(t *testing.T) {
	_, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x40000, 0x200000, PTERead, 3); err != nil {
		t.Fatal(err)
	}
	if err := mapper.Map(0x41000, 0x201000, PTERead|PTEWrite, 0); err != nil {
		t.Fatal(err)
	}
	m.Translate(0x40000, Read, 0)
	steady := func(name string, op func()) {
		t.Helper()
		g := m.Gen()
		op()
		if m.Gen() != g {
			t.Errorf("%s moved Gen %d -> %d", name, g, m.Gen())
		}
	}
	bumps := func(name string, op func()) {
		t.Helper()
		g := m.Gen()
		op()
		if m.Gen() == g {
			t.Errorf("%s left Gen at %d", name, g)
		}
	}
	steady("hit", func() { m.Translate(0x40008, Read, 0) })
	steady("failed check", func() { m.Translate(0x40008, Write, 0) })
	steady("wrong ROLoad key", func() { m.Translate(0x40008, ROLoadRead, 4) })
	bumps("walk and insert", func() { m.Translate(0x41000, Write, 0) })
	bumps("FlushPage", func() { m.FlushPage(0x41000) })
	m.Translate(0x41000, Write, 0)
	bumps("CorruptTLB", func() { m.CorruptTLB(0x41000, func(e *TLBEntry) { e.Perms &^= PTEWrite }) })
	steady("CorruptTLB miss", func() { m.CorruptTLB(0x90000, func(e *TLBEntry) {}) })
	st := m.State()
	bumps("SetState", func() {
		if err := m.SetState(st); err != nil {
			t.Fatal(err)
		}
	})
	bumps("Flush", m.Flush)
	bumps("SetRoot", func() { m.SetRoot(mapper.Root()) })
}

func BenchmarkTranslateHit(b *testing.B) {
	phys := mem.NewPhysical(64 << 20)
	alloc := &bumpAlloc{next: 0x100000}
	mapper, _ := NewMapper(phys, alloc)
	m := New(phys, DefaultConfig())
	m.SetRoot(mapper.Root())
	_ = mapper.Map(0x50000, 0x80000, PTERead, 3)
	m.Translate(0x50000, Read, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Translate(0x50000, ROLoadRead, 3)
	}
}

func BenchmarkTranslateWalk(b *testing.B) {
	phys := mem.NewPhysical(64 << 20)
	alloc := &bumpAlloc{next: 0x100000}
	mapper, _ := NewMapper(phys, alloc)
	m := New(phys, DefaultConfig())
	m.SetRoot(mapper.Root())
	_ = mapper.Map(0x50000, 0x80000, PTERead, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Flush()
		m.Translate(0x50000, Read, 0)
	}
}
