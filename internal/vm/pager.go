package vm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/timing"
)

// OS is the machine-dependent layer the pager calls back into. The
// reference/dirty-bit policy engines implement it: that boundary is exactly
// where Sprite's "machine dependent routine that reads the hardware
// reference bit" lives, which the paper's NOREF policy stubs out.
type OS interface {
	// MapPage installs the PTE for a page that just became resident
	// (pg.Frame is set). The dirty-bit policy decides the protection and
	// dirty bit it installs; the handler also sets the reference bit,
	// since the faulting access obviously references the page.
	MapPage(pg *Page)
	// UnmapPage invalidates the PTE and flushes the page's blocks from
	// the virtual cache, as the kernel must before reusing the frame.
	UnmapPage(pg *Page)
	// PageReferenced reads the page's reference bit as the daemon sees
	// it (always false under NOREF).
	PageReferenced(pg *Page) bool
	// ClearReference clears the reference bit; under REF it also flushes
	// the page from the cache so the next access faults the bit back on.
	ClearReference(pg *Page)
	// PageModified reports whether the page's contents differ from the
	// backing store and must be written out.
	PageModified(pg *Page) bool
}

// Stats counts pager activity. PageIns and the page-out breakdown feed
// Tables 3.5 and 4.1 directly.
type Stats struct {
	PageIns   uint64 // pages read from the backing store
	PageOuts  uint64 // pages written to the backing store
	Reclaims  uint64 // pages reclaimed by the daemon
	ZeroFills uint64 // zero-fill page creations
	Scans     uint64 // pages examined by the daemon

	// WritablePageOuts counts reclaimed writable pages ("potentially
	// modified" in Table 3.5); CleanWritablePageOuts counts those that
	// were still clean ("not modified") — the pages dirty bits save.
	WritablePageOuts      uint64
	CleanWritablePageOuts uint64
	// ZFODForcedWrites counts clean zero-fill pages written to swap on
	// first replacement anyway (Sprite's rule, footnote 4 of the paper).
	ZFODForcedWrites uint64

	// IORetries counts backing-store reads that failed transiently and
	// were retried (injected via faultinject.PageInIO).
	IORetries uint64
}

// MaxPageInRetries is the pager's retry budget for a failing backing-store
// read; exhausting it raises an *IOError panic, which the hardened runner
// converts into a RunFailure artifact.
const MaxPageInRetries = 4

// IOError is the terminal backing-store failure: every retry of a page-in
// failed. It is raised as a panic value because the fault path has no error
// return (the paper's machines simply hung on NFS outages); the hardened
// runner in internal/machine recovers it into a structured RunFailure.
type IOError struct {
	VPN      addr.GVPN
	Attempts int
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("vm: backing-store read of page %#x failed %d times (retry budget exhausted)",
		uint64(e.VPN), e.Attempts)
}

// Fault describes how EnsureResident satisfied a page fault.
type Fault struct {
	// PageIn is true if the page was read from the backing store.
	PageIn bool
	// ZeroFill is true if the page was created zero-filled.
	ZeroFill bool
}

// Pager is the Sprite-like virtual memory manager.
type Pager struct {
	//spurlint:ignore statecomplete — component wiring; a fanout split copies the pool's free list with Pool.CopyFreeFrom
	pool *mem.Pool
	//spurlint:ignore statecomplete — component wiring, re-established by SetOS when the machine is rebuilt
	os OS
	//spurlint:ignore statecomplete — component wiring; counters are armed per measured interval, not checkpointed
	ctr *counters.Set
	//spurlint:ignore statecomplete — timing configuration from the spec, not accumulated state
	tp timing.Params

	//spurlint:ignore statecomplete — built by the workload's environment calls, which every fanout member receives through multiEnv (see sample.copyMachine)
	regions []Region
	pages   map[addr.GVPN]*Page

	// The clock is a ring of the resident pages, threaded through their
	// prev and next fields, oldest at the hand.
	hand     *Page // next page the daemon examines; nil when none is resident
	resident int   // pages in the ring

	// Cycles accumulates kernel CPU and I/O stall overhead attributable
	// to paging: zero-fill, page-in stalls, page-out queueing, daemon
	// scanning. Reference-processing costs are charged by the engine.
	Cycles uint64

	// Runnable, if set, reports how many processes could use the CPU; a
	// page-in stall overlaps with other work when it exceeds one.
	//spurlint:ignore statecomplete — callback wiring installed by the scheduler when the machine is rebuilt
	Runnable func() int

	// AutoRegister makes faults outside any region register a writable
	// data page on the fly instead of panicking. Trace replay uses it:
	// a stored trace carries addresses but not the region bookkeeping of
	// the run that produced it.
	//spurlint:ignore statecomplete — replay-harness configuration, set by the driver, not machine state
	AutoRegister bool

	// Inject, when non-nil, can fail backing-store reads transiently
	// (faultinject.PageInIO); the pager retries with exponential backoff
	// charged to the elapsed-time model, and raises *IOError past
	// MaxPageInRetries. A nil injector is inert.
	//spurlint:ignore statecomplete — fault-injection harness configuration; experiments never checkpoint under injection
	Inject *faultinject.Injector

	// Stats is the pager activity record.
	Stats Stats
}

// NewPager builds a pager over the frame pool. The OS callbacks are set
// with SetOS before first use (the policy engine and pager reference each
// other, so construction is two-phase).
func NewPager(pool *mem.Pool, ctr *counters.Set, tp timing.Params) *Pager {
	return &Pager{
		pool:  pool,
		ctr:   ctr,
		tp:    tp,
		pages: make(map[addr.GVPN]*Page),
	}
}

// SetOS installs the machine-dependent callbacks.
func (pg *Pager) SetOS(os OS) { pg.os = os }

// Pool exposes the frame pool.
func (pg *Pager) Pool() *mem.Pool { return pg.pool }

// AddRegion registers n pages starting at start with the given kind.
// Overlapping regions are a setup bug and panic.
func (pg *Pager) AddRegion(start addr.GVPN, n int, kind PageKind) Region {
	r := Region{Start: start, N: n, Kind: kind}
	for _, old := range pg.regions {
		if r.Start < old.End() && old.Start < r.End() {
			panic(fmt.Sprintf("vm: region %v overlaps %v", r, old))
		}
	}
	pg.regions = append(pg.regions, r)
	return r
}

// ReleaseRegion tears down a region: resident pages are unmapped and their
// frames freed, backing-store copies dropped, and the region forgotten.
// Used at process exit; nothing is written out.
func (pg *Pager) ReleaseRegion(r Region) {
	for i := 0; i < r.N; i++ {
		vpn := r.Start + addr.GVPN(i)
		page, ok := pg.pages[vpn]
		if !ok {
			continue
		}
		if page.Resident {
			pg.os.UnmapPage(page)
			pg.removeFromClock(page)
			pg.pool.Release(page.Frame)
			page.Resident = false
		}
		delete(pg.pages, vpn)
	}
	for i, old := range pg.regions {
		if old == r {
			pg.regions = append(pg.regions[:i], pg.regions[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("vm: release of unknown region %v", r))
}

// Lookup returns the instantiated page for vpn, or nil.
func (pg *Pager) Lookup(vpn addr.GVPN) *Page { return pg.pages[vpn] }

// page returns (creating if needed) the Page for vpn, or nil if no region
// covers it.
func (pg *Pager) page(vpn addr.GVPN) *Page {
	if p, ok := pg.pages[vpn]; ok {
		return p
	}
	for _, r := range pg.regions {
		if r.Contains(vpn) {
			p := &Page{
				VPN:     vpn,
				Kind:    r.Kind,
				OnStore: !r.Kind.ZeroFill(), // file-backed pages start on store
			}
			pg.pages[vpn] = p
			return p
		}
	}
	if pg.AutoRegister {
		p := &Page{VPN: vpn, Kind: Data, OnStore: true}
		pg.pages[vpn] = p
		return p
	}
	return nil
}

// EnsureResident handles a page fault on vpn: it reclaims frames if the
// free list is low, allocates a frame, fills the page (page-in or
// zero-fill), and asks the OS to map it. It returns the page and what
// happened. Faulting outside any region panics — the workload generators
// never do that, and silence would hide generator bugs.
func (pg *Pager) EnsureResident(vpn addr.GVPN) (*Page, Fault) {
	page := pg.page(vpn)
	if page == nil {
		panic(fmt.Sprintf("vm: fault outside any region: page %#x", uint64(vpn)))
	}
	if page.Resident {
		return page, Fault{}
	}

	if pg.pool.NeedsDaemon() {
		pg.runDaemon()
	}
	frame, ok := pg.pool.Alloc()
	if !ok {
		// The daemon should always free something; if every frame is
		// held this is a configuration error (memory smaller than the
		// pager's own floor).
		pg.runDaemon()
		frame, ok = pg.pool.Alloc()
		if !ok {
			panic("vm: out of frames even after forced reclaim")
		}
	}

	var f Fault
	if page.OnStore {
		f.PageIn = true
		pg.Stats.PageIns++
		pg.ctr.Inc(counters.EvPageIn)
		stall := pg.tp.PageInStallCycles
		if pg.Runnable != nil && pg.Runnable() > 1 {
			// Another process runs while this one waits for the disk:
			// most of the latency is hidden from elapsed time.
			stall = uint64(float64(stall) * pg.tp.PageInOverlapFactor)
		}
		// Injected transient I/O errors: each failed attempt costs the
		// full stall (the request went to the store and died) plus an
		// exponentially growing backoff wait, all charged to the
		// elapsed-time model. Past the retry budget the store is treated
		// as down and *IOError is raised for the hardened runner.
		for attempt := 1; pg.Inject.Fire(faultinject.PageInIO); attempt++ {
			pg.Stats.IORetries++
			pg.Cycles += stall + (pg.tp.PageInStallCycles>>3)<<uint(attempt)
			if attempt >= MaxPageInRetries {
				panic(&IOError{VPN: vpn, Attempts: attempt})
			}
		}
		pg.Cycles += stall
	} else {
		// Zero-fill-on-demand: the kernel maps a zeroed frame with the
		// dirty bit off (the first store will still take a dirty fault,
		// which the paper's N_zfod isolates from the intrinsic ones).
		f.ZeroFill = true
		pg.Stats.ZeroFills++
		pg.ctr.Inc(counters.EvZeroFillFault)
		pg.Cycles += pg.tp.ZeroFillCycles
	}

	page.Frame = frame
	page.Resident = true
	page.SoftDirty = false
	pg.insertBehindHand(page)
	pg.os.MapPage(page)
	return page, f
}

// ResidentPages returns the number of pages currently in the clock.
func (pg *Pager) ResidentPages() int { return pg.resident }
