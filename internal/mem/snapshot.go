package mem

import "fmt"

// PageImage is the serializable contents of one allocated physical
// page, used by kernel checkpoints. Data is always PageSize bytes.
type PageImage struct {
	PN   uint64 `json:"pn"`
	Data []byte `json:"data"` // base64 on the wire via encoding/json
}

// SnapshotPages copies every allocated page (in deterministic,
// ascending page-number order) for checkpointing. All-zero pages that
// have been touched are included: the allocated-page set is itself
// observable (PageNumbers, AllocatedPages), so restores reproduce it
// exactly.
func (p *Physical) SnapshotPages() []PageImage {
	pns := p.PageNumbers()
	out := make([]PageImage, 0, len(pns))
	for _, pn := range pns {
		data := make([]byte, PageSize)
		copy(data, p.pages[pn].data)
		out = append(out, PageImage{PN: pn, Data: data})
	}
	return out
}

// RestorePages replaces the memory contents with the snapshot: every
// currently allocated page is dropped, then the snapshot's pages are
// installed. Write generations restart, which is invisible to
// simulated state (generations only gate host-side caches, and those
// revalidate: the dropped pages are orphaned like ZeroPage's).
func (p *Physical) RestorePages(pages []PageImage) error {
	for _, pi := range pages {
		if len(pi.Data) != PageSize {
			return fmt.Errorf("mem: snapshot page %#x has %d bytes, want %d", pi.PN, len(pi.Data), PageSize)
		}
		if pi.PN<<PageShift >= p.size {
			return fmt.Errorf("mem: snapshot page %#x outside %#x-byte memory", pi.PN, p.size)
		}
	}
	for _, pg := range p.pages {
		pg.orphan()
	}
	p.pages = make(map[uint64]*page, len(pages))
	p.last = nil
	for _, pi := range pages {
		data := make([]byte, PageSize)
		copy(data, pi.Data)
		p.pages[pi.PN] = &page{data: data}
	}
	return nil
}
