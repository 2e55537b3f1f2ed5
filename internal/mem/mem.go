// Package mem provides the physical frame pool backing the simulated main
// memory.
//
// The paper's experiments vary main memory over 5, 6 and 8 megabytes; the
// pool is simply the set of 4 KB frames with a free list and a wired
// reservation (kernel text/data and the wired second-level page tables),
// plus the low/high watermarks the Sprite page daemon runs against.
package mem

import (
	"fmt"

	"repro/internal/addr"
)

// Pool is a physical frame allocator.
type Pool struct {
	total int
	wired int
	free  []addr.PFN
	inUse []bool // indexed by PFN, true while allocated

	//spurlint:ignore statecomplete — watermark configuration derived from the geometry at construction
	lowWater int
	//spurlint:ignore statecomplete — watermark configuration derived from the geometry at construction
	highWater int
}

// NewPool returns a pool of total frames, of which wired are permanently
// reserved (never allocatable). Watermarks default to 5% / 10% of the
// allocatable frames, matching the spirit of the BSD/Sprite page daemon.
func NewPool(total, wired int) *Pool {
	if total <= 0 || wired < 0 || wired >= total {
		panic(fmt.Sprintf("mem: bad pool geometry total=%d wired=%d", total, wired))
	}
	p := &Pool{
		total: total,
		wired: wired,
		inUse: make([]bool, total),
	}
	// Frames [0, wired) are the wired reservation; the rest start free.
	// The free list is kept LIFO so recently released frames are reused
	// first, as a real allocator would for cache warmth.
	for f := total - 1; f >= wired; f-- {
		p.free = append(p.free, addr.PFN(f)) //spurlint:ignore countersafe — f indexes frames of a few-MB memory (at most thousands), far below 2^32
	}
	avail := total - wired
	p.lowWater = max(1, avail/20)
	p.highWater = max(p.lowWater+1, avail/10)
	return p
}

// PoolForBytes returns a pool sized for a main memory of the given bytes
// with the given number of wired frames.
func PoolForBytes(memBytes int, wired int) *Pool {
	return NewPool(memBytes/addr.PageBytes, wired)
}

// Total returns the total number of frames.
func (p *Pool) Total() int { return p.total }

// Allocatable returns the number of frames the pager may use.
func (p *Pool) Allocatable() int { return p.total - p.wired }

// Free returns the current number of free frames.
func (p *Pool) Free() int { return len(p.free) }

// LowWater returns the free-frame count below which the page daemon starts.
func (p *Pool) LowWater() int { return p.lowWater }

// SetWatermarks overrides the daemon thresholds. high must exceed low.
func (p *Pool) SetWatermarks(low, high int) {
	if low < 1 || high <= low || high > p.Allocatable() {
		panic(fmt.Sprintf("mem: bad watermarks %d/%d (allocatable %d)", low, high, p.Allocatable()))
	}
	p.lowWater, p.highWater = low, high
}

// NeedsDaemon reports whether free frames have fallen below the low
// watermark.
func (p *Pool) NeedsDaemon() bool { return len(p.free) < p.lowWater }

// AboveHighWater reports whether the daemon has replenished enough frames.
func (p *Pool) AboveHighWater() bool { return len(p.free) >= p.highWater }

// Alloc takes a free frame, reporting failure when memory is exhausted.
func (p *Pool) Alloc() (addr.PFN, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[f] = true
	return f, true
}

// Release returns a frame to the free list. Releasing a wired or already
// free frame panics: both indicate pager corruption.
func (p *Pool) Release(f addr.PFN) {
	if int(f) < p.wired || int(f) >= p.total {
		panic(fmt.Sprintf("mem: release of wired or out-of-range frame %d", f))
	}
	if !p.inUse[f] {
		panic(fmt.Sprintf("mem: double release of frame %d", f))
	}
	p.inUse[f] = false
	p.free = append(p.free, f)
}

// CopyFreeFrom makes p's free list src's, cut to p's frames: the frames of
// src's list that p has, in src's order, with every other allocatable frame
// of p in use. The order is real machine state: the list is LIFO over the
// release history, so it decides which frame every later fault gets. A
// fanout split hands a member its larger leader's list with it; the cut
// drops only frames the leader never allocated (see sample's horizon).
func (p *Pool) CopyFreeFrom(src *Pool) {
	p.free = p.free[:0]
	for _, f := range src.free {
		if int(f) < p.total {
			p.free = append(p.free, f)
		}
	}
	for f := p.wired; f < p.total; f++ {
		p.inUse[f] = true
	}
	for _, f := range p.free {
		p.inUse[f] = false
	}
}
