package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/mem"
	"repro/internal/pte"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/xlate"
)

const (
	pteSeg  = addr.SegmentID(255)
	dataSeg = addr.SegmentID(3)
)

type rig struct {
	e   *Engine
	ctr *counters.Set
}

func newRig(dirty DirtyPolicy, ref RefPolicy, frames int) *rig {
	ctr := counters.New()
	tp := timing.Default()
	c := cache.New(128 * 1024)
	tbl := pte.NewTable(pteSeg)
	x := xlate.New(tbl, c, ctr, tp)
	pool := mem.NewPool(frames, 0)
	if frames > 8 {
		pool.SetWatermarks(2, 4)
	}
	pager := vm.NewPager(pool, ctr, tp)
	e := NewEngine(c, x, pager, ctr, tp, dirty, ref)
	pager.AddRegion(addr.PageIn(dataSeg, 0), 256, vm.Data)
	pager.AddRegion(addr.PageIn(dataSeg, 1024), 256, vm.Heap)
	pager.AddRegion(addr.PageIn(addr.SegmentID(2), 0), 64, vm.Code)
	return &rig{e: e, ctr: ctr}
}

func dataAddr(page int, block int) addr.GVA {
	return addr.Global(dataSeg, uint64(page)*addr.PageBytes+uint64(block)*addr.BlockBytes)
}

func heapAddr(page int, block int) addr.GVA {
	return addr.Global(dataSeg, uint64(1024+page)*addr.PageBytes+uint64(block)*addr.BlockBytes)
}

func codeAddr(page int, block int) addr.GVA {
	return addr.Global(addr.SegmentID(2), uint64(page)*addr.PageBytes+uint64(block)*addr.BlockBytes)
}

func (r *rig) read(a addr.GVA)   { r.e.Access(trace.Rec{Op: trace.OpRead, Addr: a}) }
func (r *rig) write(a addr.GVA)  { r.e.Access(trace.Rec{Op: trace.OpWrite, Addr: a}) }
func (r *rig) ifetch(a addr.GVA) { r.e.Access(trace.Rec{Op: trace.OpIFetch, Addr: a}) }

func (r *rig) count(e counters.Event) uint64 { return r.ctr.Count(e) }

// The Figure 3.1 scenario: two blocks of page A cached while the page was
// read-only (clean); after the first write makes the page writable, a write
// to the other previously cached block still faults under FAULT.
func TestFaultPolicyExcessFault(t *testing.T) {
	r := newRig(DirtyFAULT, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))
	if got := r.count(counters.EvDirtyFault); got != 0 {
		t.Fatalf("faults after reads = %d", got)
	}

	r.write(dataAddr(0, 20)) // first write: necessary fault
	if got := r.count(counters.EvDirtyFault); got != 1 {
		t.Fatalf("necessary faults = %d, want 1", got)
	}
	if got := r.count(counters.EvExcessFault); got != 0 {
		t.Fatalf("excess faults = %d, want 0", got)
	}

	r.write(dataAddr(0, 21)) // stale cached protection: excess fault
	if got := r.count(counters.EvExcessFault); got != 1 {
		t.Fatalf("excess faults = %d, want 1", got)
	}

	// Repeated writes to both blocks proceed without faults.
	r.write(dataAddr(0, 20))
	r.write(dataAddr(0, 21))
	if r.count(counters.EvDirtyFault) != 1 || r.count(counters.EvExcessFault) != 1 {
		t.Error("faults repeated on refreshed blocks")
	}

	// A block fetched by read *after* the page went dirty snapshots RW:
	// no fault.
	r.read(dataAddr(0, 22))
	r.write(dataAddr(0, 22))
	if r.count(counters.EvExcessFault) != 1 {
		t.Error("fresh block faulted")
	}
}

func TestSPURPolicyDirtyBitMiss(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))

	r.write(dataAddr(0, 20)) // necessary fault (fault-return refresh is not an N_dm event)
	if r.count(counters.EvDirtyFault) != 1 {
		t.Fatalf("necessary faults = %d", r.count(counters.EvDirtyFault))
	}
	if r.count(counters.EvDirtyBitMiss) != 0 {
		t.Fatalf("dirty-bit misses = %d, want 0 after the necessary fault", r.count(counters.EvDirtyBitMiss))
	}

	r.write(dataAddr(0, 21)) // stale cached dirty bit: dirty-bit miss, NOT a fault
	if r.count(counters.EvDirtyFault) != 1 {
		t.Error("stale block caused a fault under SPUR")
	}
	if r.count(counters.EvDirtyBitMiss) != 1 {
		t.Errorf("dirty-bit misses = %d, want 1", r.count(counters.EvDirtyBitMiss))
	}

	// Subsequent writes to refreshed blocks proceed without delay.
	r.write(dataAddr(0, 21))
	if r.count(counters.EvDirtyBitMiss) != 1 {
		t.Error("refreshed block missed again")
	}
	if r.count(counters.EvExcessFault) != 0 {
		t.Error("SPUR generated excess faults")
	}
}

func TestFlushPolicyPreventsExcessFaults(t *testing.T) {
	r := newRig(DirtyFLUSH, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))

	r.write(dataAddr(0, 20)) // necessary fault; page flushed from cache
	if r.count(counters.EvDirtyFault) != 1 {
		t.Fatalf("necessary faults = %d", r.count(counters.EvDirtyFault))
	}
	if r.count(counters.EvPageFlush) == 0 {
		t.Fatal("FLUSH policy did not flush")
	}

	r.write(dataAddr(0, 21)) // block was flushed: plain write miss, no fault
	if r.count(counters.EvExcessFault) != 0 {
		t.Error("excess fault under FLUSH")
	}
	if r.count(counters.EvDirtyFault) != 1 {
		t.Error("extra dirty fault under FLUSH")
	}
	// The flushed-and-rewritten block came back via a write miss.
	if r.count(counters.EvWriteMissBlock) == 0 {
		t.Error("refetched block not counted as write-miss fill")
	}
}

func TestWritePolicyChecksPTE(t *testing.T) {
	r := newRig(DirtyWRITE, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))

	r.write(dataAddr(0, 20)) // write hit on clean block: PTE check + fault
	if r.count(counters.EvDirtyCheck) != 1 {
		t.Fatalf("dirty checks = %d, want 1", r.count(counters.EvDirtyCheck))
	}
	if r.count(counters.EvDirtyFault) != 1 {
		t.Fatalf("faults = %d, want 1", r.count(counters.EvDirtyFault))
	}

	r.write(dataAddr(0, 21)) // first write to second block: check, no fault
	if r.count(counters.EvDirtyCheck) != 2 {
		t.Errorf("dirty checks = %d, want 2", r.count(counters.EvDirtyCheck))
	}
	if r.count(counters.EvDirtyFault) != 1 {
		t.Error("already-dirty page faulted again")
	}

	r.write(dataAddr(0, 20)) // block already dirty: no check
	if r.count(counters.EvDirtyCheck) != 2 {
		t.Error("re-write checked the PTE again")
	}
	// Write misses never need the separate check (PTE is in hand).
	r.write(dataAddr(1, 20))
	if r.count(counters.EvDirtyCheck) != 2 {
		t.Error("write miss charged a dirty check")
	}
	if r.count(counters.EvExcessFault) != 0 {
		t.Error("WRITE generated excess faults")
	}
}

func TestMinPolicyOnlyNecessaryFaults(t *testing.T) {
	r := newRig(DirtyMIN, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))
	r.write(dataAddr(0, 20))
	r.write(dataAddr(0, 21))
	r.write(dataAddr(1, 23))
	if r.count(counters.EvDirtyFault) != 2 { // one per page
		t.Errorf("faults = %d, want 2", r.count(counters.EvDirtyFault))
	}
	if r.count(counters.EvExcessFault) != 0 || r.count(counters.EvDirtyBitMiss) != 0 ||
		r.count(counters.EvDirtyCheck) != 0 {
		t.Error("MIN charged checking overhead")
	}
}

func TestWriteMissNecessaryFault(t *testing.T) {
	for _, pol := range DirtyPolicies {
		r := newRig(pol, RefMISS, 64)
		r.write(dataAddr(0, 20)) // write miss to a clean page
		if got := r.count(counters.EvDirtyFault); got != 1 {
			t.Errorf("%v: write-miss faults = %d, want 1", pol, got)
		}
		if got := r.count(counters.EvWriteMissBlock); got != 1 {
			t.Errorf("%v: N_w-miss = %d, want 1", pol, got)
		}
	}
}

func TestNwHitNwMissClassification(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.write(dataAddr(0, 20)) // read-then-write: N_w-hit
	r.write(dataAddr(0, 21)) // write miss: N_w-miss
	r.write(dataAddr(0, 21)) // re-write: neither
	r.ifetch(codeAddr(0, 20))
	if r.count(counters.EvWriteHitBlock) != 1 {
		t.Errorf("N_w-hit = %d, want 1", r.count(counters.EvWriteHitBlock))
	}
	if r.count(counters.EvWriteMissBlock) != 1 {
		t.Errorf("N_w-miss = %d, want 1", r.count(counters.EvWriteMissBlock))
	}
}

func TestZeroFillPagesCounted(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.write(heapAddr(0, 20)) // ZFOD creation + dirty fault
	r.write(heapAddr(1, 20))
	r.read(dataAddr(0, 20)) // file-backed: page-in, not zfod
	if r.count(counters.EvZeroFillFault) != 2 {
		t.Errorf("N_zfod = %d, want 2", r.count(counters.EvZeroFillFault))
	}
	if r.count(counters.EvDirtyFault) != 2 {
		t.Errorf("N_ds = %d, want 2", r.count(counters.EvDirtyFault))
	}
	if r.e.Pager.Stats.PageIns != 1 {
		t.Errorf("page-ins = %d, want 1", r.e.Pager.Stats.PageIns)
	}
}

func TestRefFaultOnMissAfterClear(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.read(dataAddr(0, 20))
	if r.count(counters.EvRefFault) != 0 {
		t.Fatal("mapping fault should set R without a separate ref fault")
	}
	// Daemon clears the reference bit.
	pg := r.e.Pager.Lookup(dataAddr(0, 20).Page())
	r.e.ClearReference(pg)
	// A hit does NOT set the bit back (the MISS approximation's blind
	// spot)...
	r.read(dataAddr(0, 20))
	if r.e.PageReferenced(pg) {
		t.Error("hit set the reference bit under MISS")
	}
	// ...but the next miss does, via a reference fault.
	r.read(dataAddr(0, 25))
	if r.count(counters.EvRefFault) != 1 {
		t.Errorf("ref faults = %d, want 1", r.count(counters.EvRefFault))
	}
	if !r.e.PageReferenced(pg) {
		t.Error("reference bit not set after miss")
	}
}

func TestRefTRUEFlushesOnClear(t *testing.T) {
	r := newRig(DirtySPUR, RefTRUE, 64)
	r.read(dataAddr(0, 20))
	pg := r.e.Pager.Lookup(dataAddr(0, 20).Page())
	flushes := r.count(counters.EvPageFlush)
	r.e.ClearReference(pg)
	if r.count(counters.EvPageFlush) != flushes+1 {
		t.Fatal("REF clear did not flush the page")
	}
	// The next access to the previously cached block now misses and
	// faults the bit back on: true reference bits.
	r.read(dataAddr(0, 20))
	if r.count(counters.EvRefFault) != 1 {
		t.Errorf("ref faults = %d, want 1", r.count(counters.EvRefFault))
	}
	if !r.e.PageReferenced(pg) {
		t.Error("bit not restored")
	}
}

func TestRefNONEBehaviour(t *testing.T) {
	r := newRig(DirtySPUR, RefNONE, 64)
	r.read(dataAddr(0, 20))
	pg := r.e.Pager.Lookup(dataAddr(0, 20).Page())
	if r.e.PageReferenced(pg) {
		t.Error("NOREF read routine returned true")
	}
	r.e.ClearReference(pg) // no-op
	r.read(dataAddr(0, 27))
	r.read(dataAddr(1, 20))
	if r.count(counters.EvRefFault) != 0 {
		t.Error("NOREF generated reference faults")
	}
	if r.count(counters.EvPageFlush) != 0 {
		t.Error("NOREF flushed")
	}
}

func TestWriteToCodePagePanics(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.ifetch(codeAddr(0, 20))
	defer func() {
		if recover() == nil {
			t.Error("write to code page did not panic")
		}
	}()
	r.write(codeAddr(0, 20))
}

func TestReclaimRearmsDirtyFault(t *testing.T) {
	// A page written, paged out, paged back in and re-written must take a
	// second necessary fault — this is what drives N_ds up at small
	// memory sizes.
	r := newRig(DirtySPUR, RefNONE, 8) // tiny memory, FIFO reclaim
	r.e.Pager.Pool().SetWatermarks(2, 4)
	r.write(dataAddr(0, 20))
	if r.count(counters.EvDirtyFault) != 1 {
		t.Fatal("first fault missing")
	}
	// Pressure page 0 out.
	for i := 1; i < 12; i++ {
		r.read(dataAddr(i, 20))
	}
	if pg := r.e.Pager.Lookup(dataAddr(0, 20).Page()); pg.Resident() {
		t.Fatal("page 0 still resident; pressure insufficient")
	}
	if r.e.Pager.Stats.PageOuts == 0 {
		t.Fatal("modified page not written out")
	}
	r.write(dataAddr(0, 20))
	if r.count(counters.EvDirtyFault) != 2 {
		t.Errorf("faults after re-dirty = %d, want 2", r.count(counters.EvDirtyFault))
	}
	if r.e.Pager.Stats.PageIns == 0 {
		t.Error("re-fault was not a page-in")
	}
}

func TestElapsedAndCycles(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	for i := 0; i < 100; i++ {
		r.read(dataAddr(i%4, i%128))
	}
	if r.e.Cycles == 0 || r.e.TotalCycles() < r.e.Cycles {
		t.Error("cycle accounting broken")
	}
	if r.e.ElapsedSeconds() <= 0 {
		t.Error("elapsed not positive")
	}
}

func TestEventsFromEngineRun(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.write(dataAddr(0, 20))
	r.write(heapAddr(0, 20))
	ev := EventsFrom(r.ctr, r.e.Pager.Stats, r.e.ElapsedSeconds())
	if ev.Nds != 2 || ev.Nzfod != 1 || ev.NwHit != 1 || ev.NwMiss != 1 {
		t.Errorf("events = %+v", ev)
	}
	if ev.Refs != 3 || ev.Misses != 2 {
		t.Errorf("refs/misses = %d/%d", ev.Refs, ev.Misses)
	}
	if ev.PageIns != 1 {
		t.Errorf("page-ins = %d", ev.PageIns)
	}
}

// TestPolicyEquivalenceOnEventCounts checks the paper's Table 3.3 claim
// N_ef = N_dm: running the same reference string under FAULT and SPUR must
// observe the same set of stale blocks.
func TestPolicyEquivalenceOnEventCounts(t *testing.T) {
	script := func(r *rig) {
		for p := 0; p < 6; p++ {
			for b := 0; b < 10; b++ {
				r.read(dataAddr(p, b))
			}
			for b := 5; b < 15; b++ {
				r.write(dataAddr(p, b))
			}
		}
	}
	rf := newRig(DirtyFAULT, RefMISS, 64)
	script(rf)
	rs := newRig(DirtySPUR, RefMISS, 64)
	script(rs)
	nef := rf.count(counters.EvExcessFault)
	ndm := rs.count(counters.EvDirtyBitMiss)
	if nef != ndm {
		t.Errorf("N_ef = %d but N_dm = %d", nef, ndm)
	}
	if nef == 0 {
		t.Error("script produced no stale blocks; test is vacuous")
	}
	// And both runs agree on the necessary fault count.
	if rf.count(counters.EvDirtyFault) != rs.count(counters.EvDirtyFault) {
		t.Errorf("N_ds differs: %d vs %d",
			rf.count(counters.EvDirtyFault), rs.count(counters.EvDirtyFault))
	}
}

// TestPROTEquivalentToSPUR verifies the paper's claim that applying the
// dirty-bit-miss idea directly to the protection field ("since the
// performance of this scheme is identical to what we implemented in SPUR,
// we will not discuss it separately") holds in simulation: same necessary
// faults, same stale-block refreshes, same cycles.
func TestPROTEquivalentToSPUR(t *testing.T) {
	script := func(r *rig) {
		for p := 0; p < 6; p++ {
			for b := 16; b < 26; b++ {
				r.read(dataAddr(p, b))
			}
			for b := 21; b < 31; b++ {
				r.write(dataAddr(p, b))
			}
			r.write(heapAddr(p, 20))
		}
	}
	rs := newRig(DirtySPUR, RefMISS, 64)
	script(rs)
	rp := newRig(DirtyPROT, RefMISS, 64)
	script(rp)

	if a, b := rs.count(counters.EvDirtyFault), rp.count(counters.EvDirtyFault); a != b {
		t.Errorf("N_ds differs: SPUR %d vs PROT %d", a, b)
	}
	if a, b := rs.count(counters.EvDirtyBitMiss), rp.count(counters.EvProtBitMiss); a != b {
		t.Errorf("stale refreshes differ: dirty-bit misses %d vs prot-bit misses %d", a, b)
	}
	if rp.count(counters.EvExcessFault) != 0 {
		t.Error("PROT paid excess faults")
	}
	if rs.e.Cycles != rp.e.Cycles {
		t.Errorf("cycles differ: SPUR %d vs PROT %d", rs.e.Cycles, rp.e.Cycles)
	}
}

func TestPROTPolicyMechanism(t *testing.T) {
	r := newRig(DirtyPROT, RefMISS, 64)
	r.read(dataAddr(0, 20))
	r.read(dataAddr(0, 21))
	r.write(dataAddr(0, 20)) // necessary fault; PTE raised to RW
	if r.count(counters.EvDirtyFault) != 1 || r.count(counters.EvProtBitMiss) != 0 {
		t.Fatalf("first write: nds=%d npm=%d", r.count(counters.EvDirtyFault), r.count(counters.EvProtBitMiss))
	}
	r.write(dataAddr(0, 21)) // stale cached protection: prot-bit miss, no fault
	if r.count(counters.EvDirtyFault) != 1 {
		t.Error("stale block faulted under PROT")
	}
	if r.count(counters.EvProtBitMiss) != 1 {
		t.Errorf("prot-bit misses = %d, want 1", r.count(counters.EvProtBitMiss))
	}
	r.write(dataAddr(0, 21)) // refreshed: proceeds clean
	if r.count(counters.EvProtBitMiss) != 1 {
		t.Error("refreshed block missed again")
	}
}

// TestTagIgnoringFlushCollateral configures SPUR's real flush hardware
// (no tag check) and verifies that kernel page flushes take innocent
// bystander blocks with them, unlike the hypothetical tag-checking flush.
func TestTagIgnoringFlushCollateral(t *testing.T) {
	r := newRig(DirtyFLUSH, RefMISS, 64)
	r.e.TagCheckFlush = false

	// Cache block 21 of page 32, which lives in one of page 0's 128 line
	// frames (4096 lines / 128 blocks-per-page = 32 pages of cache) but
	// does not conflict with the blocks the test touches on page 0.
	r.read(dataAddr(32, 21))
	// Trigger the FLUSH policy on page 0: the tag-ignoring flush sweeps
	// all 128 of page 0's frames and takes page 32's block with them.
	r.read(dataAddr(0, 20))
	r.write(dataAddr(0, 20))
	if _, hit := r.e.Cache.Probe(dataAddr(32, 21).Block()); hit {
		t.Error("tag-ignoring flush spared a conflicting page's block")
	}

	// The tag-checking flush spares it.
	r2 := newRig(DirtyFLUSH, RefMISS, 64)
	r2.e.TagCheckFlush = true
	r2.read(dataAddr(32, 21))
	r2.read(dataAddr(0, 20))
	r2.write(dataAddr(0, 20))
	if _, hit := r2.e.Cache.Probe(dataAddr(32, 21).Block()); !hit {
		t.Error("tag-checking flush took a bystander")
	}
}

// TestEngineFaultsByKind: a first write to a data page and to a heap page
// each take one necessary dirty fault, which sets that page's software
// dirty bit.
func TestEngineFaultsByKind(t *testing.T) {
	r := newRig(DirtySPUR, RefMISS, 64)
	r.write(dataAddr(0, 20))
	r.write(heapAddr(0, 20))
	if n := r.e.Ctr.Count(counters.EvDirtyFault); n != 2 {
		t.Errorf("necessary faults = %d, want 2", n)
	}
	for _, a := range []addr.GVA{dataAddr(0, 20), heapAddr(0, 20)} {
		if pg := r.e.Pager.Lookup(a.Page()); pg == nil || !pg.SoftDirty {
			t.Errorf("page %#x not marked dirty", uint64(a.Page()))
		}
	}
}
