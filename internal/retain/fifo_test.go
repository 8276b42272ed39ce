package retain

import "testing"

func TestFIFOEvictsOldest(t *testing.T) {
	f := NewFIFO[string, int](2)
	f.Put("a", 1)
	f.Put("b", 2)
	f.Put("a", 10) // replace in place: a stays oldest
	f.Put("c", 3)  // evicts a
	if _, ok := f.Get("a"); ok {
		t.Error("oldest key survived eviction")
	}
	if v, ok := f.Get("b"); !ok || v != 2 {
		t.Errorf("b = %d, %v", v, ok)
	}
	if v, ok := f.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v", v, ok)
	}
	if f.Len() != 2 || f.Cap() != 2 {
		t.Errorf("len/cap = %d/%d, want 2/2", f.Len(), f.Cap())
	}
}

// TestFIFODeleteReinsert: a deleted key re-inserted queues at the back,
// so the next eviction takes the older survivor, not the new entry.
func TestFIFODeleteReinsert(t *testing.T) {
	f := NewFIFO[string, int](2)
	f.Put("a", 1)
	f.Put("b", 2)
	f.Delete("a")
	f.Delete("missing") // no-op
	f.Put("a", 3)
	f.Put("c", 4) // evicts b, the oldest live key
	if _, ok := f.Get("b"); ok {
		t.Error("b survived: eviction followed the stale position of a")
	}
	if v, ok := f.Get("a"); !ok || v != 3 {
		t.Errorf("re-inserted a = %d, %v; want 3, true", v, ok)
	}
	if _, ok := f.Get("c"); !ok {
		t.Error("newest key c evicted")
	}
	if f.Len() != 2 {
		t.Errorf("len = %d, want 2", f.Len())
	}
}
