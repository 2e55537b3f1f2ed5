package vm

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/mem"
	"repro/internal/timing"
)

// fakeOS is a minimal policy layer: a software reference bit per page set on
// every map and cleared by the daemon, and a modified set driven by tests.
type fakeOS struct {
	ref      map[addr.GVPN]bool
	modified map[addr.GVPN]bool
	unmaps   int
	maps     int
	noRef    bool // emulate NOREF: referenced always reads false
	refOnMap bool // set the reference bit when a page is mapped
}

func newFakeOS() *fakeOS {
	return &fakeOS{ref: map[addr.GVPN]bool{}, modified: map[addr.GVPN]bool{}}
}

func (f *fakeOS) MapPage(pg *Page) {
	f.maps++
	if f.refOnMap {
		f.ref[pg.VPN] = true
	}
}
func (f *fakeOS) UnmapPage(pg *Page) { f.unmaps++ }
func (f *fakeOS) PageReferenced(pg *Page) bool {
	if f.noRef {
		return false
	}
	return f.ref[pg.VPN]
}
func (f *fakeOS) ClearReference(pg *Page)    { f.ref[pg.VPN] = false }
func (f *fakeOS) PageModified(pg *Page) bool { return f.modified[pg.VPN] }

func newPager(frames int) (*Pager, *fakeOS) {
	pool := mem.NewPool(frames, 0)
	pool.SetWatermarks(2, 4)
	pg := NewPager(pool, counters.New(), timing.Default())
	os := newFakeOS()
	pg.SetOS(os)
	return pg, os
}

func TestPageKinds(t *testing.T) {
	if Code.Writable() || !Data.Writable() || !Heap.Writable() || !Stack.Writable() {
		t.Error("Writable wrong")
	}
	if Code.ZeroFill() || Data.ZeroFill() || !Heap.ZeroFill() || !Stack.ZeroFill() {
		t.Error("ZeroFill wrong")
	}
	for _, k := range []PageKind{Code, Data, Heap, Stack} {
		if k.String() == "page?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestRegionOverlapPanics(t *testing.T) {
	pg, _ := newPager(16)
	pg.AddRegion(100, 10, Data)
	defer func() {
		if recover() == nil {
			t.Error("overlapping region did not panic")
		}
	}()
	pg.AddRegion(105, 10, Heap)
}

func TestFaultOutsideRegionPanics(t *testing.T) {
	pg, _ := newPager(16)
	defer func() {
		if recover() == nil {
			t.Error("wild fault did not panic")
		}
	}()
	pg.EnsureResident(999)
}

func TestFileBackedFaultIsPageIn(t *testing.T) {
	pg, _ := newPager(16)
	pg.AddRegion(100, 4, Data)
	page, f := pg.EnsureResident(101)
	if !f.PageIn || f.ZeroFill {
		t.Errorf("fault = %+v", f)
	}
	if !page.Resident || page.Kind != Data || !page.OnStore {
		t.Errorf("page = %+v", page)
	}
	if pg.Stats.PageIns != 1 || pg.Stats.ZeroFills != 0 {
		t.Errorf("stats = %+v", pg.Stats)
	}
	// Second fault on the same page is a no-op.
	_, f = pg.EnsureResident(101)
	if f.PageIn || f.ZeroFill {
		t.Error("resident page re-faulted")
	}
	if pg.ResidentPages() != 1 {
		t.Errorf("ResidentPages = %d", pg.ResidentPages())
	}
}

func TestZeroFillFault(t *testing.T) {
	pg, _ := newPager(16)
	pg.AddRegion(200, 4, Heap)
	page, f := pg.EnsureResident(200)
	if !f.ZeroFill || f.PageIn {
		t.Errorf("fault = %+v", f)
	}
	if page.OnStore {
		t.Error("fresh ZFOD page claims store copy")
	}
	if pg.Stats.ZeroFills != 1 {
		t.Errorf("stats = %+v", pg.Stats)
	}
}

// fillPages makes n pages resident starting at base.
func fillPages(pg *Pager, base addr.GVPN, n int) {
	for i := 0; i < n; i++ {
		pg.EnsureResident(base + addr.GVPN(i))
	}
}

func TestDaemonReclaimsUnderPressure(t *testing.T) {
	pg, os := newPager(8) // watermarks 2/4
	pg.AddRegion(0, 64, Data)
	fillPages(pg, 0, 20)
	if pg.Pool().Free() < 2 {
		t.Fatalf("daemon failed: free=%d", pg.Pool().Free())
	}
	if pg.Stats.Reclaims == 0 || os.unmaps == 0 {
		t.Error("nothing reclaimed")
	}
	if pg.ResidentPages()+pg.Pool().Free() != 8 {
		t.Errorf("frame conservation: resident=%d free=%d", pg.ResidentPages(), pg.Pool().Free())
	}
}

func TestSecondChanceOverFIFO(t *testing.T) {
	// With reference bits, a constantly re-referenced page survives;
	// under NOREF (always unreferenced) the ring degenerates to FIFO.
	pg, os := newPager(32)
	pg.AddRegion(0, 128, Data)
	hot := addr.GVPN(0)
	fillPages(pg, 0, 30)
	for i := 30; i < 100; i++ {
		os.ref[hot] = true // the hot page is re-referenced continuously
		pg.EnsureResident(addr.GVPN(i))
	}
	if !pg.Lookup(hot).Resident {
		t.Error("hot page reclaimed despite set reference bit")
	}

	pg2, os2 := newPager(32)
	os2.noRef = true
	pg2.AddRegion(0, 128, Data)
	fillPages(pg2, 0, 30)
	for i := 30; i < 100; i++ {
		os2.ref[0] = true // ignored under NOREF
		pg2.EnsureResident(addr.GVPN(i))
	}
	if pg2.Lookup(0) != nil && pg2.Lookup(0).Resident {
		t.Error("NOREF kept the old page alive")
	}
}

func TestReclaimWritesModifiedPages(t *testing.T) {
	pg, os := newPager(8)
	pg.AddRegion(0, 64, Data)
	fillPages(pg, 0, 6)
	os.modified[0] = true
	os.modified[1] = false
	// Force enough pressure to cycle everything out.
	fillPages(pg, 32, 20)
	st := pg.Stats
	if st.PageOuts == 0 {
		t.Fatal("no page-outs")
	}
	if st.WritablePageOuts == 0 || st.CleanWritablePageOuts == 0 {
		t.Errorf("page-out classification: %+v", st)
	}
	if st.CleanWritablePageOuts >= st.WritablePageOuts {
		t.Errorf("all writable page-outs clean? %+v", st)
	}
	if !pg.Lookup(0).EverDirtied {
		t.Error("EverDirtied not recorded")
	}
	if !pg.Lookup(0).OnStore {
		t.Error("modified page not on store after page-out")
	}
}

func TestZFODForcedWriteOnFirstReplacement(t *testing.T) {
	pg, _ := newPager(8)
	pg.AddRegion(0, 1, Heap)   // the one ZFOD page under test
	pg.AddRegion(32, 64, Data) // clean file-backed pressure pages
	pg.EnsureResident(0)
	fillPages(pg, 32, 12) // push page 0 out, unmodified
	if pg.Stats.ZFODForcedWrites != 1 || pg.Stats.PageOuts != 1 {
		t.Fatalf("first replacement: %+v", pg.Stats)
	}
	// Second replacement of the same (still clean) page writes nothing.
	ins := pg.Stats.PageIns
	pg.EnsureResident(0) // back in: now a page-in, it is on store
	if pg.Stats.PageIns != ins+1 {
		t.Error("re-fault of swapped ZFOD page was not a page-in")
	}
	fillPages(pg, 48, 12)
	if pg.Lookup(0).Resident {
		t.Fatal("page 0 survived pressure; ordering changed")
	}
	if pg.Stats.ZFODForcedWrites != 1 {
		t.Error("ZFOD page force-written twice")
	}
	if pg.Stats.PageOuts != 1 {
		t.Error("clean on-store page written out again")
	}
}

func TestReleaseRegion(t *testing.T) {
	pg, os := newPager(16)
	r := pg.AddRegion(0, 8, Heap)
	fillPages(pg, 0, 8)
	free := pg.Pool().Free()
	pg.ReleaseRegion(r)
	if pg.Pool().Free() != free+8 {
		t.Errorf("frames not returned: %d -> %d", free, pg.Pool().Free())
	}
	if pg.ResidentPages() != 0 || pg.Lookup(0) != nil {
		t.Error("pages survived region release")
	}
	if os.unmaps != 8 {
		t.Errorf("unmaps = %d", os.unmaps)
	}
	// Region is gone: faulting there panics now.
	defer func() {
		if recover() == nil {
			t.Error("fault in released region did not panic")
		}
	}()
	pg.EnsureResident(0)
}

func TestReleaseUnknownRegionPanics(t *testing.T) {
	pg, _ := newPager(8)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	pg.ReleaseRegion(Region{Start: 5, N: 3, Kind: Data})
}

func TestClockHandSurvivesRemovals(t *testing.T) {
	// Exercise removeFromClock with the hand pointing at the removed page.
	pg, _ := newPager(16)
	r := pg.AddRegion(0, 4, Data)
	fillPages(pg, 0, 4)
	pg.ReleaseRegion(r)
	r2 := pg.AddRegion(100, 2, Data)
	fillPages(pg, 100, 2)
	if pg.ResidentPages() != 2 {
		t.Errorf("ResidentPages = %d", pg.ResidentPages())
	}
	pg.ReleaseRegion(r2)
	if pg.ResidentPages() != 0 {
		t.Error("ring not empty")
	}
	// And the ring still works afterwards.
	pg.AddRegion(0, 4, Data)
	fillPages(pg, 0, 4)
	if pg.ResidentPages() != 4 {
		t.Error("ring broken after drain")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	pg, _ := newPager(8)
	pg.AddRegion(0, 64, Data)
	fillPages(pg, 0, 20)
	if pg.Cycles == 0 {
		t.Error("pager charged no cycles")
	}
}

func TestCountersRaised(t *testing.T) {
	pool := mem.NewPool(8, 0)
	pool.SetWatermarks(2, 4)
	ctr := counters.New()
	pg := NewPager(pool, ctr, timing.Default())
	pg.SetOS(newFakeOS())
	pg.AddRegion(0, 64, Heap)
	fillPages(pg, 0, 20)
	if ctr.Count(counters.EvZeroFillFault) == 0 ||
		ctr.Count(counters.EvPageReclaim) == 0 ||
		ctr.Count(counters.EvDaemonScan) == 0 {
		t.Error("pager events not counted")
	}
}

func TestFrontHandClearsPastTarget(t *testing.T) {
	// Once the free target is met, the daemon's front hand keeps moving
	// for a bounded sweep, clearing reference bits without reclaiming.
	pg, os := newPager(64)
	pg.Pool().SetWatermarks(2, 4)
	pg.AddRegion(0, 256, Data)
	// Make everything referenced so the first sweep only clears.
	os.refOnMap = true
	fillPages(pg, 0, 80) // exceeds memory: the daemon must run
	if pg.Stats.Scans == 0 {
		t.Fatal("daemon never ran")
	}
	cleared := 0
	for vpn, ref := range os.ref {
		if p := pg.Lookup(vpn); p != nil && p.Resident && !ref {
			cleared++
		}
	}
	if cleared == 0 {
		t.Error("front hand cleared nothing past the free target")
	}
}

func TestAutoRegister(t *testing.T) {
	pg, _ := newPager(16)
	pg.AutoRegister = true
	page, f := pg.EnsureResident(424242)
	if page == nil || !f.PageIn {
		t.Fatalf("auto-registered fault: page=%v fault=%+v", page, f)
	}
	if page.Kind != Data || !page.Writable() {
		t.Errorf("auto page kind = %v", page.Kind)
	}
}

// clockOrder lists the ring from the hand, checking that every page's prev
// link mirrors its predecessor's next.
func clockOrder(t *testing.T, pg *Pager) []addr.GVPN {
	t.Helper()
	var out []addr.GVPN
	for p := pg.hand; p != nil; {
		if p.next.prev != p {
			t.Fatalf("page %#x: next.prev does not point back", uint64(p.VPN))
		}
		out = append(out, p.VPN)
		if p = p.next; p == pg.hand {
			break
		}
	}
	if len(out) != pg.ResidentPages() {
		t.Fatalf("ring holds %d pages, ResidentPages says %d", len(out), pg.ResidentPages())
	}
	return out
}

// TestClockRingOrder pins the ring order the pager had as a container/list
// with a wrapping hand, step by step: a daemon pass that wraps, an insert
// behind the hand, removal of the hand page, and removal of the only page.
// Each page has a region of its own so a release removes exactly one.
func TestClockRingOrder(t *testing.T) {
	pg, _ := newPager(16) // watermarks 2/4: the daemon only scans
	regions := make([]Region, 6)
	for i := range regions {
		regions[i] = pg.AddRegion(addr.GVPN(i), 1, Data)
	}
	steps := []struct {
		name string
		do   func()
		want []addr.GVPN // ring from the hand
	}{
		{"fill", func() { fillPages(pg, 0, 3) }, []addr.GVPN{0, 1, 2}},
		// Above the high watermark the daemon only runs its front hand:
		// 2×3+1 scans wrap the ring twice and leave the hand on page 1.
		{"daemon wrap", pg.runDaemon, []addr.GVPN{1, 2, 0}},
		{"insert behind the hand", func() { pg.EnsureResident(3) }, []addr.GVPN{1, 2, 0, 3}},
		{"remove the hand page", func() { pg.ReleaseRegion(regions[1]) }, []addr.GVPN{2, 0, 3}},
		{"remove behind the hand", func() { pg.ReleaseRegion(regions[3]) }, []addr.GVPN{2, 0}},
		{"remove after the hand", func() { pg.ReleaseRegion(regions[0]) }, []addr.GVPN{2}},
		{"remove the only page", func() { pg.ReleaseRegion(regions[2]) }, nil},
		{"refill", func() { fillPages(pg, 4, 2) }, []addr.GVPN{4, 5}},
	}
	for _, s := range steps {
		s.do()
		if got := clockOrder(t, pg); !slices.Equal(got, s.want) {
			t.Fatalf("after %s: ring %v, want %v", s.name, got, s.want)
		}
	}
	if pg.Stats.Scans != 7 {
		t.Errorf("daemon scanned %d pages, want 7", pg.Stats.Scans)
	}
}

// TestCopyFromKeepsClockOrder: a copied pager holds its own pages, linked
// in the source's ring order from the same hand, with the same statistics.
func TestCopyFromKeepsClockOrder(t *testing.T) {
	src, os := newPager(16)
	src.AddRegion(0, 8, Heap)
	fillPages(src, 0, 5)
	os.modified[2] = true
	src.runDaemon() // the hand moves off the first page
	src.ReleaseRegion(Region{Start: 0, N: 8, Kind: Heap})
	src.AddRegion(0, 8, Heap)
	fillPages(src, 3, 4)
	src.runDaemon()
	src.Lookup(4).SoftDirty = true

	dst, _ := newPager(16)
	dst.CopyFrom(src)
	if got, want := clockOrder(t, dst), clockOrder(t, src); !slices.Equal(got, want) {
		t.Fatalf("copied ring %v, want %v", got, want)
	}
	if !dst.SamePages(src) || dst.Stats != src.Stats || dst.Cycles != src.Cycles {
		t.Fatal("the copy differs from its source")
	}
	for v, p := range src.pages {
		if dst.pages[v] == p {
			t.Fatalf("page %#x shared between the source and its copy", uint64(v))
		}
	}
	dst.runDaemon()
	if dst.SamePages(src) {
		t.Fatal("SamePages missed a moved hand")
	}
}
