package vm

import (
	"container/list"
	"fmt"
	"sort"

	"repro/internal/addr"
)

// PageState is the captured form of one Page: everything the pager knows
// about the page, minus the clock-ring linkage (the ring is captured
// separately, as an ordered VPN list, because the *order* is the state — it
// decides which page the daemon examines next).
type PageState struct {
	VPN         uint64
	Kind        PageKind
	Resident    bool
	Frame       addr.PFN
	OnStore     bool
	SoftDirty   bool
	EverDirtied bool
}

// PagerState is a checkpoint of the pager's mutable state. Regions are not
// part of it: the pager a checkpoint is restored onto has already received
// the Env calls the original did (a fanout member through multiEnv), which
// registered every live region, so the snapshot only carries what
// generation cannot rebuild — the instantiated pages, the clock ring, the
// statistics and the accumulated paging cycles.
type PagerState struct {
	// Pages lists every instantiated page in ascending VPN order.
	Pages []PageState
	// Clock lists the resident pages' VPNs in ring order starting at the
	// hand, so a restore rebuilds an identical replacement sequence.
	Clock  []uint64
	Stats  Stats
	Cycles uint64
}

// ExportState captures the pager's mutable state for a checkpoint.
func (pg *Pager) ExportState() PagerState {
	s := PagerState{Stats: pg.Stats, Cycles: pg.Cycles}
	vpns := make([]addr.GVPN, 0, len(pg.pages))
	for v := range pg.pages {
		vpns = append(vpns, v)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, v := range vpns {
		p := pg.pages[v]
		s.Pages = append(s.Pages, PageState{
			VPN: uint64(p.VPN), Kind: p.Kind,
			Resident: p.Resident, Frame: p.Frame,
			OnStore: p.OnStore, SoftDirty: p.SoftDirty, EverDirtied: p.EverDirtied,
		})
	}
	if pg.hand != nil {
		for e := pg.hand; ; {
			s.Clock = append(s.Clock, uint64(e.Value.(*Page).VPN))
			e = nextRing(pg.clock, e)
			if e == pg.hand {
				break
			}
		}
	}
	return s
}

// RestoreState overwrites the pager's mutable state from a checkpoint. The
// caller must already have re-registered the checkpoint's regions (by
// regenerating the workload stream); RestoreState replaces whatever pages
// and ring the regeneration pass left (normally none — generation alone
// never instantiates a page) with the checkpointed ones. Frame ownership is
// the caller's to restore in the frame pool; this method validates only the
// pager's own invariants: resident pages appear in the ring exactly once,
// and the ring names no non-resident page.
func (pg *Pager) RestoreState(s PagerState) error {
	pages := make(map[addr.GVPN]*Page, len(s.Pages))
	resident := 0
	for _, ps := range s.Pages {
		vpn := addr.GVPN(ps.VPN)
		if _, dup := pages[vpn]; dup {
			return fmt.Errorf("vm: snapshot lists page %#x twice", ps.VPN)
		}
		pages[vpn] = &Page{
			VPN: vpn, Kind: ps.Kind,
			Resident: ps.Resident, Frame: ps.Frame,
			OnStore: ps.OnStore, SoftDirty: ps.SoftDirty, EverDirtied: ps.EverDirtied,
		}
		if ps.Resident {
			resident++
		}
	}
	if len(s.Clock) != resident {
		return fmt.Errorf("vm: snapshot ring has %d pages but %d are resident", len(s.Clock), resident)
	}
	clock := list.New()
	for _, v := range s.Clock {
		p, ok := pages[addr.GVPN(v)]
		if !ok || !p.Resident {
			return fmt.Errorf("vm: snapshot ring names non-resident page %#x", v)
		}
		if p.elem != nil {
			return fmt.Errorf("vm: snapshot ring names page %#x twice", v)
		}
		p.elem = clock.PushBack(p)
	}
	pg.pages = pages
	pg.clock = clock
	pg.hand = clock.Front()
	pg.Stats = s.Stats
	pg.Cycles = s.Cycles
	return nil
}
