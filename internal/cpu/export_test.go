package cpu

// Test hooks that read the engines' host-side caches without adding a
// counter to any execution loop.

// translatedBlocks returns how many blocks the block engine holds.
// Every translation is cached under its start address, so with no
// invalidation in between this is the number of translations made.
func (c *CPU) translatedBlocks() int { return len(c.blocks) }

// decodedSlots returns how many instruction slots the interpreter's
// fetch path (Step) has predecoded. The block engine never fills the
// predecode cache, so it stays 0 while no instruction has been
// single-stepped.
func (c *CPU) decodedSlots() int {
	n := 0
	for _, pg := range c.predecode {
		for _, cl := range pg.class {
			if cl == slotDecoded {
				n++
			}
		}
	}
	return n
}
