package mmu

import (
	"testing"
	"testing/quick"

	"roload/internal/mem"
	"roload/internal/obs"
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

// TestDataHitMatchesTranslate pins the D-side hit path to the full
// lookup. Twin MMUs share one physical memory: for every page
// permission and data access kind, DataHit on one twin must hit exactly
// when Translate on the other passes, with the same PA and statistics
// afterwards, and a miss must leave the statistics untouched. The
// ROLoad key is checked per access against the cached entry, so a
// wrong key never hits.
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
				if err := phys.WriteUint(pa+8, 0x1122334455667788, 8); err != nil {
					t.Fatal(err)
				}
				const off = 8
				// Not yet in the L0: a miss that changes nothing.
				if _, _, ok := hit.DataHit(va+off, ac.at, ac.key); ok {
					t.Fatal("DataHit hit before any translation")
				}
				if hit.Stats() != (Stats{}) {
					t.Fatalf("miss changed stats: %+v", hit.Stats())
				}
				// Fill both TLBs (and the L0) the same way; the fill
				// happens whether or not the access passes.
				hit.Translate(va, ac.at, ac.key)
				full.Translate(va, ac.at, ac.key)
				for round := 0; round < 2; round++ {
					before := hit.Stats()
					gotPA, fr, ok := hit.DataHit(va+off, ac.at, ac.key)
					wantPA, miss, fault := full.Translate(va+off, ac.at, ac.key)
					if ok != (fault == nil) {
						t.Fatalf("round %d: DataHit ok=%v, Translate fault=%v", round, ok, fault)
					}
					if !ok {
						if hit.Stats() != before {
							t.Fatalf("round %d: miss changed stats %+v -> %+v", round, before, hit.Stats())
						}
						// The caller falls back to the full path.
						hit.Translate(va+off, ac.at, ac.key)
					} else {
						if miss || gotPA != wantPA {
							t.Fatalf("round %d: DataHit pa %#x, Translate pa %#x miss %v", round, gotPA, wantPA, miss)
						}
						want, _ := phys.ReadUint(wantPA, 8)
						if got := fr.ReadUint(gotPA, 8); got != want {
							t.Fatalf("round %d: frame reads %#x, memory holds %#x", round, got, want)
						}
					}
					if hit.Stats() != full.Stats() {
						t.Fatalf("round %d: stats %+v, twin %+v", round, hit.Stats(), full.Stats())
					}
				}
			})
		}
	}
}

// TestDataHitFrameLiveness checks that the frame an L0 slot caches
// never outlives its page: after ZeroPage or RestorePages orphans the
// page, DataHit must not hand out the stale frame — it misses until
// the page exists again, then serves the new one. Writes through the
// frame land in physical memory and bump the write generation.
func TestDataHitFrameLiveness(t *testing.T) {
	phys, mapper, m := testSetup(t, DefaultConfig())
	const va, pa = 0x40000, 0x200000
	if err := mapper.Map(va, pa, PTERead|PTEWrite, 0); err != nil {
		t.Fatal(err)
	}
	read := func(name string) (uint64, bool) {
		t.Helper()
		before := m.Stats()
		gotPA, fr, ok := m.DataHit(va+16, Read, 0)
		if !ok {
			if m.Stats() != before {
				t.Fatalf("%s: miss changed stats", name)
			}
			return 0, false
		}
		if gotPA != pa+16 {
			t.Fatalf("%s: pa %#x, want %#x", name, gotPA, pa+16)
		}
		return fr.ReadUint(gotPA, 8), true
	}
	if _, _, f := m.Translate(va, Read, 0); f != nil {
		t.Fatal(f)
	}
	// The page has never been touched: no frame to hand out, and the
	// lookup must not allocate one.
	allocated := phys.AllocatedPages()
	if _, ok := read("untouched"); ok {
		t.Fatal("DataHit invented a frame for an untouched page")
	}
	if phys.AllocatedPages() != allocated {
		t.Fatalf("DataHit allocated: %d pages, was %d", phys.AllocatedPages(), allocated)
	}
	mustWrite := func(v uint64) {
		t.Helper()
		if err := phys.WriteUint(pa+16, v, 8); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(0xaaaa)
	if v, ok := read("allocated"); !ok || v != 0xaaaa {
		t.Fatalf("allocated: got %#x ok=%v, want 0xaaaa hit", v, ok)
	}

	// A write through the frame reaches memory and invalidates refs.
	ref, _ := phys.Ref(pa)
	_, fr, ok := m.DataHit(va+24, Write, 0)
	if !ok {
		t.Fatal("write did not hit")
	}
	fr.WriteUint(pa+24, 0xbbbb, 2)
	if v, _ := phys.ReadUint(pa+24, 8); v != 0xbbbb {
		t.Fatalf("frame write: memory holds %#x", v)
	}
	if ref.Valid() {
		t.Fatal("frame write did not bump the write generation")
	}

	orphans := []struct {
		name   string
		orphan func() error
		want   uint64 // value at pa+16 once the page is back
	}{
		{"ZeroPage", func() error { return phys.ZeroPage(pa) }, 0},
		{"RestorePages", func() error {
			snap := phys.SnapshotPages()
			mustWrite(0xdead) // the live frame changes; the snapshot does not
			return phys.RestorePages(snap)
		}, 0xcccc},
	}
	for _, o := range orphans {
		mustWrite(0xcccc)
		if v, ok := read(o.name + " before"); !ok || v != 0xcccc {
			t.Fatalf("%s before: got %#x ok=%v", o.name, v, ok)
		}
		if err := o.orphan(); err != nil {
			t.Fatal(err)
		}
		if v, ok := read(o.name + " after"); ok && v != o.want {
			t.Fatalf("%s: DataHit served a stale frame (%#x), memory holds %#x", o.name, v, o.want)
		}
		mustWrite(0xeeee)
		if v, ok := read(o.name + " rewritten"); !ok || v != 0xeeee {
			t.Fatalf("%s rewritten: got %#x ok=%v, want 0xeeee hit", o.name, v, ok)
		}
	}
}

// TestDataHitBypassedUnderProbe: with a probe attached every lookup
// must reach the full path, which emits the per-lookup events.
func TestDataHitBypassedUnderProbe(t *testing.T) {
	phys, mapper, m := testSetup(t, DefaultConfig())
	if err := mapper.Map(0x40000, 0x200000, PTERead, 0); err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteUint(0x200000, 1, 8); err != nil {
		t.Fatal(err)
	}
	m.Translate(0x40000, Read, 0)
	if _, _, ok := m.DataHit(0x40000, Read, 0); !ok {
		t.Fatal("no hit without a probe")
	}
	m.SetProbe(&obs.Counters{}, obs.SideD, nil)
	before := m.Stats()
	if _, _, ok := m.DataHit(0x40000, Read, 0); ok || m.Stats() != before {
		t.Fatalf("probe attached: ok=%v, stats %+v -> %+v", ok, before, m.Stats())
	}
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

func BenchmarkDataHit(b *testing.B) {
	phys := mem.NewPhysical(64 << 20)
	alloc := &bumpAlloc{next: 0x100000}
	mapper, _ := NewMapper(phys, alloc)
	m := New(phys, DefaultConfig())
	m.SetRoot(mapper.Root())
	_ = mapper.Map(0x50000, 0x80000, PTERead, 3)
	_ = phys.WriteUint(0x80000, 1, 8)
	m.Translate(0x50000, Read, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.DataHit(0x50000, ROLoadRead, 3)
	}
}
