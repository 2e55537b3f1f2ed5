package vm

import (
	"slices"

	"repro/internal/addr"
)

// CopyFrom makes pg's pages, clock ring, statistics and paging cycles those
// of src, with Pages of its own linked in src's ring order from src's hand,
// so pg's daemon examines the same pages in the same order. Regions are not
// copied: a fanout member receives the workload's environment calls that
// build them as its leader does. The frame pool is the caller's to copy.
func (pg *Pager) CopyFrom(src *Pager) {
	vpns := make([]addr.GVPN, 0, len(src.pages))
	for v := range src.pages {
		vpns = append(vpns, v)
	}
	slices.Sort(vpns)
	pg.pages = make(map[addr.GVPN]*Page, len(vpns))
	for _, v := range vpns {
		p := *src.pages[v]
		p.prev, p.next = nil, nil
		pg.pages[v] = &p
	}
	pg.hand, pg.resident = nil, 0
	if h := src.hand; h != nil {
		for p := h; ; {
			pg.insertBehindHand(pg.pages[p.VPN])
			if p = p.next; p == h {
				break
			}
		}
	}
	pg.Stats = src.Stats
	pg.Cycles = src.Cycles
}

// SamePages reports whether pg and o hold the same pages, field for field,
// linked in the same clock order from a hand at the same page. Differential
// tests compare two machines' pagers with it.
func (pg *Pager) SamePages(o *Pager) bool {
	if len(pg.pages) != len(o.pages) || pg.resident != o.resident || !sameVPN(pg.hand, o.hand) {
		return false
	}
	for v, p := range pg.pages {
		q, ok := o.pages[v]
		if !ok || !sameVPN(p.next, q.next) {
			return false
		}
		a, b := *p, *q
		a.prev, a.next, b.prev, b.next = nil, nil, nil, nil
		if a != b {
			return false
		}
	}
	return true
}

// sameVPN reports whether two ring positions name the same page, or are
// both empty.
func sameVPN(p, q *Page) bool {
	if p == nil || q == nil {
		return p == q
	}
	return p.VPN == q.VPN
}
