// Package cache models the prototype's L1 caches for cycle accounting.
//
// The paper's system (Table II) has 32 KiB 8-way L1 instruction and
// data caches in front of a DDR3 SO-DIMM. The performance evaluation
// only needs hit/miss behaviour — the CPU charges a miss penalty per
// refill — so the model tracks tags with true LRU and no data array.
package cache

import (
	"fmt"

	"roload/internal/obs"
)

// Config describes one cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size
}

// DefaultL1 mirrors Table II: 32 KiB, 8-way, 64-byte lines.
func DefaultL1() Config {
	return Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
}

// Stats aggregates accesses.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses / accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // larger = more recently used
}

// Cache is a set-associative tag store with true LRU replacement.
type Cache struct {
	cfg Config
	// lines holds every slot, set-major and way-minor: set s occupies
	// lines[s*ways : (s+1)*ways]. A slot's index into lines is the
	// handle Last and HitLine trade in.
	lines    []line
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	stats    Stats

	// lastAddr/last short-circuit the way scan for the common case of
	// consecutive accesses to one line: last is the slot of the most
	// recent access to line address lastAddr (noLine when there is
	// none). The slot may be reallocated by an intervening miss, so the
	// fast path re-verifies validity and tag before trusting it; the
	// accounting it performs (tick, LRU stamp, hit count, probe event)
	// is exactly the scan's.
	lastAddr uint64
	last     int

	// probe, when non-nil, observes every access. side tags the events
	// (I- or D-cache); cycles supplies the timestamp counter.
	probe  obs.Probe
	side   obs.Side
	cycles *uint64
}

// New builds a cache. The configuration must describe a power-of-two
// geometry; New panics otherwise, since configurations are
// compile-time constants in this codebase.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	numLines := cfg.SizeBytes / cfg.LineBytes
	numSets := numLines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: geometry must be a power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	setBits := uint(0)
	for 1<<setBits < numSets {
		setBits++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, numLines),
		ways:     cfg.Ways,
		setMask:  uint64(numSets - 1),
		setBits:  setBits,
		lineBits: lineBits,
		lastAddr: noLine,
	}
}

// noLine is the lastAddr of a cache with no last access to repeat: no
// physical line address reaches it.
const noLine = ^uint64(0)

// set returns the slots of the set holding line address lineAddr and
// the index of its first slot.
func (c *Cache) set(lineAddr uint64) ([]line, int) {
	base := int(lineAddr&c.setMask) * c.ways
	return c.lines[base : base+c.ways], base
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetProbe attaches (or with p == nil detaches) an event probe. side
// tags emitted events; cycles, when non-nil, supplies the timestamp
// counter (the owning CPU's cycle register).
func (c *Cache) SetProbe(p obs.Probe, side obs.Side, cycles *uint64) {
	c.probe = p
	c.side = side
	c.cycles = cycles
}

// Access touches the line containing physical address pa and reports
// whether it hit. A miss installs the line.
func (c *Cache) Access(pa uint64) bool {
	c.tick++
	lineAddr := pa >> c.lineBits
	tag := lineAddr >> c.setBits
	// Fast path: repeat access to the last-touched line.
	if c.lastAddr == lineAddr {
		if ll := &c.lines[c.last]; ll.valid && ll.tag == tag {
			ll.lru = c.tick
			c.stats.Hits++
			if c.probe != nil {
				c.emit(pa, true)
			}
			return true
		}
	}
	set, base := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			c.stats.Hits++
			c.lastAddr, c.last = lineAddr, base+i
			if c.probe != nil {
				c.emit(pa, true)
			}
			return true
		}
	}
	c.stats.Misses++
	if c.probe != nil {
		c.emit(pa, false)
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
	c.lastAddr, c.last = lineAddr, base+victim
	return false
}

// Last returns the slot and tag of the line the most recent Access
// touched (hit or installed). It is meaningful only right after an
// Access, before any Flush, DropLine or SetState.
func (c *Cache) Last() (slot int, tag uint64) {
	return c.last, c.lines[c.last].tag
}

// HitLine is an Access hit for a caller that remembers where its line
// lives: when slot still holds tag, it does exactly the bookkeeping of
// an Access that hits it (tick, LRU stamp, hit count) and reports
// true; otherwise it changes nothing and reports false, and the caller
// makes the full Access. It emits no probe event, so callers use it
// only while no probe is attached. It leaves the last-line shortcut
// where it was, which only the I-side RepeatLast depends on.
func (c *Cache) HitLine(slot int, tag uint64) bool {
	l := &c.lines[slot]
	if !l.valid || l.tag != tag {
		return false
	}
	c.tick++
	l.lru = c.tick
	c.stats.Hits++
	return true
}

// RepeatLast credits k more hits to the most recently accessed line,
// leaving exactly the state (tick, LRU stamp, hit count) of k further
// Access calls to that line. It emits no probe events, so callers use
// it only while no probe is attached, and only while the last access
// still stands: no Flush, DropLine or SetState since.
func (c *Cache) RepeatLast(k uint64) {
	if k == 0 {
		return
	}
	c.tick += k
	c.lines[c.last].lru = c.tick
	c.stats.Hits += k
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
	c.lastAddr = noLine
}

// DropLine invalidates the line covering physical address pa, if
// present, and reports whether one was dropped — the fault-injection
// hook for dirty-line loss. The model is a tag store over a
// write-through memory (stores always reach internal/mem), so a
// dropped line costs a deterministic refill on the next access; the
// data-loss half of a lost dirty line is modelled separately by the
// engine's store-drop fault.
func (c *Cache) DropLine(pa uint64) bool {
	lineAddr := pa >> c.lineBits
	tag := lineAddr >> c.setBits
	set, base := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			if c.last == base+i {
				c.lastAddr = noLine
			}
			return true
		}
	}
	return false
}

// LineState is one checkpointed cache line in set-major, way-minor
// order.
type LineState struct {
	Tag   uint64 `json:"tag"`
	Valid bool   `json:"valid"`
	LRU   uint64 `json:"lru"`
}

// State is the checkpointable cache state: tick, statistics, and every
// line's tag/valid/LRU. The last-line shortcut is host-only state and
// is rebuilt lazily.
type State struct {
	Tick  uint64      `json:"tick"`
	Stats Stats       `json:"stats"`
	Lines []LineState `json:"lines"`
}

// State captures the cache for a checkpoint.
func (c *Cache) State() State {
	lines := make([]LineState, len(c.lines))
	for i, l := range c.lines {
		lines[i] = LineState{Tag: l.tag, Valid: l.valid, LRU: l.lru}
	}
	return State{Tick: c.tick, Stats: c.stats, Lines: lines}
}

// SetState restores a checkpointed cache state; the geometry must
// match the cache it is restored into.
func (c *Cache) SetState(s State) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache: restoring %d lines into a %d-line cache", len(s.Lines), len(c.lines))
	}
	for i, l := range s.Lines {
		c.lines[i] = line{tag: l.Tag, valid: l.Valid, lru: l.LRU}
	}
	c.tick = s.Tick
	c.stats = s.Stats
	c.lastAddr = noLine
	return nil
}

// emit is the cold half of the probe path, kept out of Access so the
// nil-probe fast path stays small enough to inline around.
func (c *Cache) emit(pa uint64, hit bool) {
	var now uint64
	if c.cycles != nil {
		now = *c.cycles
	}
	c.probe.Event(obs.Event{Kind: obs.KindCache, Side: c.side, Hit: hit, VA: pa, Cycle: now})
}
