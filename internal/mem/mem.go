// Package mem provides the sparse physical memory model backing the
// prototype system, mirroring the 4 GiB DDR3 SO-DIMM of the paper's
// FPGA board (Table II) without allocating it eagerly.
//
// Hot-path design: every simulated instruction performs one to three
// physical accesses (fetch, page-walk reads, load/store), so ReadUint
// and WriteUint carry a fast path for accesses that stay inside one
// page — they index the page slice directly instead of round-tripping
// through a staging buffer — and the last-touched page is cached to
// skip the map lookup. The last-page pointer holds one page, so it
// misses whenever stack and global accesses alternate; the D-side hit
// path therefore bypasses it: each entry of the CPU's D-side line memo
// caches a Frame, the host page behind its translation, and loads and
// stores that hit the entry go straight to the frame. All paths produce bit-identical
// contents; they are purely host-time optimizations.
//
// Each page additionally carries a write generation counter, exposed
// through PageRef. Consumers that cache derived views of physical
// memory (the CPU's predecoded-instruction cache) snapshot the counter
// and revalidate with PageRef.Valid, which turns "was this page
// written since I looked?" into one pointer load instead of a
// write-notification protocol.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the 4 KiB page granularity shared by the physical
// allocator and the MMU.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// page is one lazily allocated physical frame plus its write
// generation, bumped on every mutation (including ZeroPage and
// RestorePages, which orphan the struct so stale PageRefs observe the
// bump and stale Frames report dead).
type page struct {
	data []byte
	gen  uint64
	dead bool
}

// orphan retires a page that is leaving the page map.
func (pg *page) orphan() {
	pg.gen++
	pg.dead = true
}

// load reads the n-byte little-endian value at offset off; the access
// must stay inside the page.
func (pg *page) load(off uint64, n int) uint64 {
	b := pg.data[off:]
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// store writes the low n bytes of v little-endian at offset off and
// bumps the write generation; the access must stay inside the page.
func (pg *page) store(off uint64, v uint64, n int) {
	pg.gen++
	b := pg.data[off:]
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		for i := 0; i < n; i++ {
			b[i] = byte(v >> (8 * uint(i)))
		}
	}
}

// Physical is a sparse byte-addressable physical memory. Pages are
// allocated lazily on first touch. It is not safe for concurrent use;
// the simulated system is single-core, as was the paper's prototype.
type Physical struct {
	size  uint64
	pages map[uint64]*page

	// last caches the most recent page lookup (fetch, walk and data
	// accesses are all strongly page-local).
	lastPN uint64
	last   *page
}

// NewPhysical returns a physical memory of the given size in bytes,
// rounded up to a whole number of pages.
func NewPhysical(size uint64) *Physical {
	if size%PageSize != 0 {
		size += PageSize - size%PageSize
	}
	return &Physical{size: size, pages: make(map[uint64]*page)}
}

// Size returns the memory size in bytes.
func (p *Physical) Size() uint64 { return p.size }

// AllocatedPages returns the number of pages that have been touched.
// The mini-kernel uses this for resident-memory accounting (the paper
// reports memory usage in KiB).
func (p *Physical) AllocatedPages() int { return len(p.pages) }

// PageNumbers returns the sorted physical page numbers of every
// allocated page — the deterministic iteration order tests use to
// checksum memory contents.
func (p *Physical) PageNumbers() []uint64 {
	out := make([]uint64, 0, len(p.pages))
	for pn := range p.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrOutOfRange reports a physical access beyond the installed memory.
type ErrOutOfRange struct {
	Addr uint64
	Size uint64
}

func (e *ErrOutOfRange) Error() string {
	return fmt.Sprintf("mem: physical address %#x outside %#x-byte memory", e.Addr, e.Size)
}

func (p *Physical) page(addr uint64) *page {
	pn := addr >> PageShift
	if p.last != nil && p.lastPN == pn {
		return p.last
	}
	pg, ok := p.pages[pn]
	if !ok {
		pg = &page{data: make([]byte, PageSize)}
		p.pages[pn] = pg
	}
	p.lastPN, p.last = pn, pg
	return pg
}

func (p *Physical) check(addr uint64, n int) error {
	if addr+uint64(n) > p.size || addr+uint64(n) < addr {
		return &ErrOutOfRange{Addr: addr, Size: p.size}
	}
	return nil
}

// Read copies len(b) bytes starting at physical address addr into b.
func (p *Physical) Read(addr uint64, b []byte) error {
	if err := p.check(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		off := addr & (PageSize - 1)
		n := copy(b, p.page(addr).data[off:])
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Write copies b into physical memory starting at addr.
func (p *Physical) Write(addr uint64, b []byte) error {
	if err := p.check(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		pg := p.page(addr)
		pg.gen++
		off := addr & (PageSize - 1)
		n := copy(pg.data[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadUint reads an n-byte little-endian unsigned integer (n in
// {1,2,4,8}). Accesses may straddle page boundaries.
func (p *Physical) ReadUint(addr uint64, n int) (uint64, error) {
	if off := addr & (PageSize - 1); off+uint64(n) <= PageSize {
		if err := p.check(addr, n); err != nil {
			return 0, err
		}
		return p.page(addr).load(off, n), nil
	}
	var buf [8]byte
	if err := p.Read(addr, buf[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]) & (^uint64(0) >> (64 - 8*n)), nil
}

// WriteUint writes an n-byte little-endian unsigned integer.
func (p *Physical) WriteUint(addr uint64, v uint64, n int) error {
	if off := addr & (PageSize - 1); off+uint64(n) <= PageSize {
		if err := p.check(addr, n); err != nil {
			return err
		}
		p.page(addr).store(off, v, n)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return p.Write(addr, buf[:n])
}

// FlipBit inverts bit (0-7) of the physical byte at addr — the
// fault-injection hook for DRAM-style corruption. It goes through the
// normal write path, so the page's write generation bumps and cached
// derived views (predecode pages) revalidate exactly as they would for
// a store. It returns the byte values before and after the flip.
func (p *Physical) FlipBit(addr uint64, bit uint) (before, after byte, err error) {
	if err := p.check(addr, 1); err != nil {
		return 0, 0, err
	}
	v, err := p.ReadUint(addr, 1)
	if err != nil {
		return 0, 0, err
	}
	before = byte(v)
	after = before ^ 1<<(bit&7)
	if err := p.WriteUint(addr, uint64(after), 1); err != nil {
		return 0, 0, err
	}
	return before, after, nil
}

// ZeroPage clears the page containing addr.
func (p *Physical) ZeroPage(addr uint64) error {
	if err := p.check(addr&^uint64(PageSize-1), PageSize); err != nil {
		return err
	}
	pn := addr >> PageShift
	if pg, ok := p.pages[pn]; ok {
		// Orphan the struct so outstanding PageRefs and Frames see the
		// invalidation.
		pg.orphan()
		delete(p.pages, pn)
	}
	if p.last != nil && p.lastPN == pn {
		p.last = nil
	}
	return nil
}

// PageRef is a revalidatable handle on one physical page, for
// consumers that cache views derived from page contents. The handle
// stays usable across arbitrary writes — Valid simply starts
// reporting false once the page has been written (or zeroed) since
// Ref was taken.
type PageRef struct {
	pg   *page
	snap uint64
}

// Ref returns a handle on the page containing addr, allocating it if
// it has never been touched. addr must be in range.
func (p *Physical) Ref(addr uint64) (PageRef, error) {
	if err := p.check(addr&^uint64(PageSize-1), PageSize); err != nil {
		return PageRef{}, err
	}
	pg := p.page(addr)
	return PageRef{pg: pg, snap: pg.gen}, nil
}

// Valid reports whether the page is unmodified since Ref.
func (r PageRef) Valid() bool { return r.pg != nil && r.pg.gen == r.snap }

// Frame is a handle on the host storage of one allocated physical
// page, for consumers that cache the page behind a translation (the
// CPU's D-side line memo). Unlike Ref, looking a Frame up never allocates, and
// writes through it do not invalidate it: it goes dead only when the
// page leaves the page map (ZeroPage, RestorePages), after which the
// holder must look it up again.
type Frame struct{ pg *page }

// Frame returns the frame holding physical address addr, or a dead
// Frame when that page has never been touched (or addr is out of
// range). It does not move the last-page pointer.
func (p *Physical) Frame(addr uint64) Frame {
	pn := addr >> PageShift
	if p.last != nil && p.lastPN == pn {
		return Frame{p.last}
	}
	return Frame{p.pages[pn]}
}

// Live reports whether the frame still backs its physical page.
func (f Frame) Live() bool { return f.pg != nil && !f.pg.dead }

// ReadUint reads the n-byte little-endian value at the in-page offset
// of addr, with all n bytes inside the page, from this live frame. addr
// may be the physical address or the virtual one that translated to
// it: a translation keeps the page offset.
func (f Frame) ReadUint(addr uint64, n int) uint64 {
	return f.pg.load(addr&(PageSize-1), n)
}

// WriteUint writes the low n bytes of v at the in-page offset of addr
// under the same conditions as ReadUint, bumping the page's write generation
// exactly as Physical.WriteUint does.
func (f Frame) WriteUint(addr uint64, v uint64, n int) {
	f.pg.store(addr&(PageSize-1), v, n)
}
