package vm

import (
	"fmt"
	"slices"
)

// CopyFrom makes pg's pages, clock ring, statistics and paging cycles those
// of src, in page arrays of its own linked in src's ring order from src's
// hand, so pg's daemon examines the same pages in the same order. Regions
// are not copied: a fanout member receives the workload's environment calls
// that build them as its leader does, so the two pagers must hold the same
// regions, and CopyFrom panics if they differ. The frame pool is the
// caller's to copy.
func (pg *Pager) CopyFrom(src *Pager) {
	if len(pg.regions) != len(src.regions) {
		panic(fmt.Sprintf("vm: copy of a pager with %d regions into one with %d", len(src.regions), len(pg.regions)))
	}
	for i := range src.regions {
		r, s := &pg.regions[i], &src.regions[i]
		if r.Region != s.Region {
			panic(fmt.Sprintf("vm: copy of a pager with region %v into one with %v", s.Region, r.Region))
		}
		// The copied ring links still point into src; relinking below
		// overwrites every one of them, and a page out of the ring has
		// none.
		r.pages = slices.Clone(s.pages)
	}
	pg.hand, pg.resident = nil, 0
	if h := src.hand; h != nil {
		for p := h; ; {
			pg.insertBehindHand(pg.Lookup(p.VPN))
			if p = p.next; p == h {
				break
			}
		}
	}
	pg.Stats = src.Stats
	pg.Cycles = src.Cycles
}

// SamePages reports whether pg and o hold the same regions and pages, field
// for field, linked in the same clock order from a hand at the same page.
// Differential tests compare two machines' pagers with it.
func (pg *Pager) SamePages(o *Pager) bool {
	if len(pg.regions) != len(o.regions) || pg.resident != o.resident || !sameVPN(pg.hand, o.hand) {
		return false
	}
	for i := range pg.regions {
		a, b := &pg.regions[i], &o.regions[i]
		if a.Region != b.Region {
			return false
		}
		for j := 0; j < a.N; j++ {
			p, q := a.slot(j), b.slot(j)
			if !sameVPN(p.next, q.next) {
				return false
			}
			p.prev, p.next, q.prev, q.next = nil, nil, nil, nil
			if p != q {
				return false
			}
		}
	}
	return true
}

// slot returns a copy of the region's page slot j, the zero Page when the
// region has never faulted.
func (r *region) slot(j int) Page {
	if r.pages == nil {
		return Page{}
	}
	return r.pages[j]
}

// sameVPN reports whether two ring positions name the same page, or are
// both empty.
func sameVPN(p, q *Page) bool {
	if p == nil || q == nil {
		return p == q
	}
	return p.VPN == q.VPN
}
