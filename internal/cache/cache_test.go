package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFirstAccessMisses(t *testing.T) {
	c := New(DefaultL1())
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1038) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Error("next-line cold access hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", st.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways x 16-byte lines = 64 bytes total.
	c := New(Config{SizeBytes: 64, Ways: 2, LineBytes: 16})
	// Three lines mapping to set 0: line addresses 0, 2, 4 (stride 32).
	c.Access(0)  // miss, installs A
	c.Access(32) // miss, installs B
	c.Access(0)  // hit, A is now MRU
	c.Access(64) // miss, evicts B (LRU)
	if !c.Access(0) {
		t.Error("A evicted despite being MRU")
	}
	if c.Access(32) {
		t.Error("B survived despite being LRU victim")
	}
}

// RepeatLast(k) after Access(pa) must leave the state of k+1 calls to
// Access(pa): same tick, statistics and per-line LRU stamps.
func TestRepeatLastMatchesAccess(t *testing.T) {
	// 2 sets x 2 ways x 16-byte lines; 0, 32 and 64 all map to set 0.
	cfg := Config{SizeBytes: 64, Ways: 2, LineBytes: 16}
	cases := []struct {
		name string
		warm []uint64 // accesses before the one that is repeated
		pa   uint64
		k    uint64
		hit  bool // whether the repeated line's first access hits
	}{
		{"k=0", []uint64{0, 32}, 0, 0, true},
		{"after hit", []uint64{0, 32, 16}, 4, 5, true},
		// Set 0 is full with 32 least recent: the miss on 64 evicts it.
		{"after evicting miss", []uint64{0, 32, 0}, 64, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, got := New(cfg), New(cfg)
			for _, pa := range tc.warm {
				want.Access(pa)
				got.Access(pa)
			}
			if hit := got.Access(tc.pa); hit != tc.hit {
				t.Fatalf("first access hit = %v, want %v", hit, tc.hit)
			}
			got.RepeatLast(tc.k)
			for i := uint64(0); i <= tc.k; i++ {
				want.Access(tc.pa)
			}
			if !reflect.DeepEqual(got.State(), want.State()) {
				t.Errorf("state after RepeatLast(%d):\n got %+v\nwant %+v", tc.k, got.State(), want.State())
			}
			// Later accesses, including a conflicting one, still agree.
			for _, pa := range []uint64{tc.pa, 32, 0} {
				if g, w := got.Access(pa), want.Access(pa); g != w {
					t.Errorf("Access(%#x) after RepeatLast: hit %v, want %v", pa, g, w)
				}
			}
			if !reflect.DeepEqual(got.State(), want.State()) {
				t.Errorf("state after later accesses:\n got %+v\nwant %+v", got.State(), want.State())
			}
		})
	}
}

func TestFlush(t *testing.T) {
	c := New(DefaultL1())
	c.Access(0x2000)
	c.Flush()
	if c.Access(0x2000) {
		t.Error("hit after flush")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 16},
		{SizeBytes: 96, Ways: 2, LineBytes: 16}, // 3 sets: not a power of two
		{SizeBytes: 64, Ways: 2, LineBytes: 24}, // line not a power of two
		{SizeBytes: -1, Ways: 1, LineBytes: 16},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: accessing the same address twice in a row always hits the
// second time, for any address.
func TestQuickTemporalLocality(t *testing.T) {
	c := New(DefaultL1())
	f := func(pa uint64) bool {
		c.Access(pa)
		return c.Access(pa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than one set's associativity never
// conflicts.
func TestQuickNoConflictWithinWays(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}
	f := func(base uint32) bool {
		c := New(cfg)
		numSets := uint64(cfg.SizeBytes / cfg.Ways / cfg.LineBytes)
		stride := numSets * uint64(cfg.LineBytes)
		addrs := make([]uint64, cfg.Ways)
		for i := range addrs {
			addrs[i] = uint64(base) + uint64(i)*stride
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for _, a := range addrs {
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(DefaultL1())
	c.Access(0x1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}
