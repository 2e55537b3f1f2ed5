// Package xlate implements SPUR's in-cache address translation [Wood86].
//
// SPUR has no TLB. When a reference misses in the virtual-address cache, the
// cache controller computes the virtual address of the page's first-level
// PTE with a shift-and-concatenate circuit and looks for that PTE *in the
// cache itself*, using the unified cache as a very large TLB. If the PTE's
// block is not cached, the controller consults the second-level PTE — wired
// down at a well-known address, so it can be read directly from memory —
// and fetches the first-level PTE block into the cache (where it then
// competes with instructions and data for its line frame).
package xlate

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/timing"
)

// Unit is the translation portion of the cache controller.
type Unit struct {
	tbl *pte.Table
	c   *cache.Cache
	ctr *counters.Set

	// The unit's cycle charges, derived from the timing parameters once:
	// checking a cached PTE, reading the wired second-level PTE and
	// fetching a PTE block, and writing a victim back.
	pteCheck, l2Fetch, writeBack uint64
}

// New wires a translation unit to the page table, the cache it shares with
// ordinary references, the performance counters, and the timing parameters.
func New(tbl *pte.Table, c *cache.Cache, ctr *counters.Set, tp timing.Params) *Unit {
	return &Unit{
		tbl: tbl, c: c, ctr: ctr,
		pteCheck:  uint64(tp.PTECheckCycles),
		l2Fetch:   uint64(tp.L2WordCycles) + tp.BlockFetchCycles(),
		writeBack: tp.WriteBackCycles(),
	}
}

// Table returns the page table the unit translates against.
func (u *Unit) Table() *pte.Table { return u.tbl }

// TranslateCached begins in-cache translation for page p, which runs on
// every cache miss (and for the WRITE dirty-bit policy's PTE check on write
// hits to clean blocks). It handles the common case: the first-level PTE
// block is already in the cache, so the walk costs only the in-cache check,
// and it returns the PTE (Valid false means a page fault) and the cycles,
// excluding the missing reference's own block fetch. When it reports false
// the caller must follow with TranslateMiss — the walk has been counted but
// nothing fetched.
func (u *Unit) TranslateCached(p addr.GVPN) (pte.Entry, uint64, bool) {
	u.ctr.Inc(counters.EvXlateWalk)
	if _, hit := u.c.Probe(u.tbl.PTEAddr(p).Block()); !hit {
		return 0, 0, false
	}
	u.ctr.Inc(counters.EvPTEHit)
	return u.tbl.Lookup(p), u.pteCheck, true
}

// TranslateMiss completes a translation whose first-level PTE block missed
// in the cache (TranslateCached returned false): read the wired second-level
// PTE directly from memory, then fetch the first-level PTE block into the
// cache — over the snooped bus, so another controller holding the block
// exclusively supplies it and degrades to shared ownership. It returns the
// PTE, the cycles spent, and whether fetching the PTE block displaced a
// block that had to be written back (already counted and charged here).
func (u *Unit) TranslateMiss(p addr.GVPN) (pte.Entry, uint64, bool) {
	cycles := u.pteCheck + u.l2Fetch
	pteBlock := u.tbl.PTEAddr(p).Block()
	u.ctr.Inc(counters.EvPTEMiss)
	u.ctr.Inc(counters.EvL2Access)
	u.ctr.Inc(counters.EvBusRead)
	u.c.IssueBus(coherence.BusRead, pteBlock)
	wroteBack := u.c.Fill(pteBlock, coherence.UnOwned, pte.ProtKernel, false, true, false)
	if wroteBack {
		u.ctr.Inc(counters.EvBusWrite)
		cycles += u.writeBack
	}
	return u.tbl.Lookup(p), cycles, wroteBack
}

// UpdatePTE applies a software update to page p's PTE, modelling the fault
// handler's store through the cache: the PTE block is made resident (if it
// is not, it is fetched exactly as a write miss would be) and marked
// modified. The returned cycles cover only the memory-system work; the
// handler's own ~1000-cycle cost (t_ds) is charged by the caller.
func (u *Unit) UpdatePTE(p addr.GVPN, fn func(pte.Entry) pte.Entry) (pte.Entry, uint64) {
	var cycles uint64
	pteBlock := u.tbl.PTEAddr(p).Block()
	if l, hit := u.c.Probe(pteBlock); hit {
		// A kernel store to a shared PTE block must take ownership:
		// other processors' cached copies of the block are invalidated
		// through the bus, which is how their in-cache "TLB entries"
		// learn the PTE changed.
		ns, op, need := coherence.OnLocalWrite(l.State())
		if need {
			u.c.IssueBus(op, pteBlock)
		}
		l.SetState(ns)
		l.SetBlockDirty(true)
	} else {
		u.ctr.Inc(counters.EvBusRead)
		cycles += u.l2Fetch
		u.c.IssueBus(coherence.BusReadOwn, pteBlock)
		if u.c.Fill(pteBlock, coherence.OwnedExclusive, pte.ProtKernel, false, true, true) {
			u.ctr.Inc(counters.EvBusWrite)
			cycles += u.writeBack
		}
	}
	return u.tbl.Update(p, fn), cycles
}

// CheckPTE reads page p's PTE the way the WRITE policy's hardware check
// does on a write hit to a clean block: it costs a cache probe of the PTE
// block plus the weighted miss penalty when absent (the paper's t_dc ≈ 5
// cycles on average).
func (u *Unit) CheckPTE(p addr.GVPN) (pte.Entry, uint64) {
	u.ctr.Inc(counters.EvDirtyCheck)
	if entry, cycles, hit := u.TranslateCached(p); hit {
		return entry, cycles
	}
	entry, cycles, _ := u.TranslateMiss(p)
	return entry, cycles
}
