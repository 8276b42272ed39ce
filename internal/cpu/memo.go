package cpu

import (
	"roload/internal/mem"
	"roload/internal/mmu"
)

// The D-side line memo: a small direct-mapped table, indexed by
// virtual D-cache line, that lets a load or store which repeats an
// earlier access's line skip translation, the cache set scan and the
// physical page lookup. Like the paper's TLB entry, which carries the
// page key so the ROLoad check rides beside the permission check, an
// entry carries the outcomes that already passed, so a hit costs a
// handful of compares and no call.
//
// An entry is trusted only while everything it summarises still holds:
//
//   - the D-side MMU's generation is the one it was filled under, so
//     the TLB still holds the translation and an access of a kind that
//     passed would hit and pass again (the TLB-hit bookkeeping is one
//     BumpTLBHits);
//   - the host frame behind the page is live (ZeroPage and
//     RestorePages kill it);
//   - the D-cache still holds the line's tag in the remembered slot,
//     which cache.HitLine checks before doing an Access hit's
//     bookkeeping.
//
// Anything else takes the full path (dataAccess, then the physical
// read or write), which refills the entry. The memo is off without the
// fast paths, for a D-cache whose lines are shorter than a memo line,
// and while a probe is attached, whose per-lookup events only the full
// path emits; stores skip it while an injector is attached, so
// FilterStore sees every store.

const (
	// memoSlots is the number of memo entries (a power of two).
	memoSlots = 256
	// A memo line is 64 bytes, so it lies inside one D-cache line of
	// any size the memo runs with (at least 64 bytes; see memoFits).
	memoLineShift = 6
	memoLineBytes = 1 << memoLineShift
)

// memoFits reports whether the memo can serve a D-cache with cfg's
// geometry: each memo line must lie inside one cache line.
func memoFits(cfg Config) bool { return cfg.DCache.LineBytes >= memoLineBytes }

// memoEntry remembers one virtual line's translation outcomes.
type memoEntry struct {
	line  uint64 // virtual address >> memoLineShift
	gen   uint64 // D-side MMU generation the outcomes hold under
	frame mem.Frame
	tag   uint64 // D-cache tag of the line ...
	slot  int32  // ... and the cache slot that held it at the fill

	// Outcomes that passed under gen, merged per entry: a read, a
	// write, and a ROLoad carrying key.
	read, write, roload bool
	key                 uint16
}

// memoEntryFor returns the entry whose line holds the n-byte access at
// va entirely, filled under the current MMU generation, over a live
// frame; nil otherwise. The caller still checks the access kind's
// outcome and then the cache line (HitLine), in that order, since only
// the second has side effects.
func (c *CPU) memoEntryFor(va uint64, n uint64) *memoEntry {
	line := va >> memoLineShift
	e := &c.memo[line&(memoSlots-1)]
	if e.line != line || va&(memoLineBytes-1)+n > memoLineBytes || e.gen != c.dmem.Gen() || !e.frame.Live() {
		return nil
	}
	return e
}

// memoHit finishes a hit whose outcome passed: the D-cache access
// must still hit the remembered slot, and then the TLB hit and the
// LoadStore charge are made exactly as the full path makes them.
func (c *CPU) memoHit(e *memoEntry) bool {
	if !c.dcache.HitLine(int(e.slot), e.tag) {
		return false
	}
	c.dmem.BumpTLBHits(1)
	c.Cycles += c.cfg.Cost.LoadStore
	return true
}

// memoFill records that an in-page access of kind at (carrying key)
// to va just passed the full path at pa and touched the D-cache line
// the cache's last access names. Outcomes from the same generation
// merge; an entry from an older one is replaced.
func (c *CPU) memoFill(va, pa uint64, at mmu.Access, key uint16) {
	line := va >> memoLineShift
	e := &c.memo[line&(memoSlots-1)]
	if gen := c.dmem.Gen(); e.line != line || e.gen != gen {
		*e = memoEntry{line: line, gen: gen}
	}
	e.frame = c.phys.Frame(pa)
	slot, tag := c.dcache.Last()
	e.slot, e.tag = int32(slot), tag
	switch at {
	case mmu.Read:
		e.read = true
	case mmu.Write:
		e.write = true
	case mmu.ROLoadRead:
		e.roload, e.key = true, key
	}
}

// passes reports whether the entry's outcomes pass an access of kind
// at carrying key.
func (e *memoEntry) passes(at mmu.Access, key uint16) bool {
	switch at {
	case mmu.Read:
		return e.read
	case mmu.Write:
		return e.write
	case mmu.ROLoadRead:
		return e.roload && e.key == key
	}
	return false
}
