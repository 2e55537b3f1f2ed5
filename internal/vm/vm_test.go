package vm

import (
	"slices"
	"testing"
	"unsafe"

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

// p0 is the first page the tests register: no region may cover page 0,
// the VPN of a page slot never faulted.
const p0 = addr.GVPN(0x100)

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
	if !page.Resident() || page.Kind != Data || !page.OnStore {
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
	if pg.resident != 1 {
		t.Errorf("resident = %d", pg.resident)
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
	pg.AddRegion(p0, 64, Data)
	fillPages(pg, p0, 20)
	if pg.Pool().Free() < 2 {
		t.Fatalf("daemon failed: free=%d", pg.Pool().Free())
	}
	if pg.Stats.Reclaims == 0 || os.unmaps == 0 {
		t.Error("nothing reclaimed")
	}
	if pg.resident+pg.Pool().Free() != 8 {
		t.Errorf("frame conservation: resident=%d free=%d", pg.resident, pg.Pool().Free())
	}
}

func TestSecondChanceOverFIFO(t *testing.T) {
	// With reference bits, a constantly re-referenced page survives;
	// under NOREF (always unreferenced) the ring degenerates to FIFO.
	pg, os := newPager(32)
	pg.AddRegion(p0, 128, Data)
	hot := p0
	fillPages(pg, p0, 30)
	for i := 30; i < 100; i++ {
		os.ref[hot] = true // the hot page is re-referenced continuously
		pg.EnsureResident(p0 + addr.GVPN(i))
	}
	if !pg.Lookup(hot).Resident() {
		t.Error("hot page reclaimed despite set reference bit")
	}

	pg2, os2 := newPager(32)
	os2.noRef = true
	pg2.AddRegion(p0, 128, Data)
	fillPages(pg2, p0, 30)
	for i := 30; i < 100; i++ {
		os2.ref[p0] = true // ignored under NOREF
		pg2.EnsureResident(p0 + addr.GVPN(i))
	}
	if pg2.Lookup(p0) != nil && pg2.Lookup(p0).Resident() {
		t.Error("NOREF kept the old page alive")
	}
}

func TestReclaimWritesModifiedPages(t *testing.T) {
	pg, os := newPager(8)
	pg.AddRegion(p0, 64, Data)
	fillPages(pg, p0, 6)
	os.modified[p0] = true
	os.modified[p0+1] = false
	// Force enough pressure to cycle everything out.
	fillPages(pg, p0+32, 20)
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
	if !pg.Lookup(p0).OnStore {
		t.Error("modified page not on store after page-out")
	}
}

func TestZFODForcedWriteOnFirstReplacement(t *testing.T) {
	pg, _ := newPager(8)
	pg.AddRegion(p0, 1, Heap)     // the one ZFOD page under test
	pg.AddRegion(p0+32, 64, Data) // clean file-backed pressure pages
	pg.EnsureResident(p0)
	fillPages(pg, p0+32, 12) // push page p0 out, unmodified
	if pg.Stats.ZFODForcedWrites != 1 || pg.Stats.PageOuts != 1 {
		t.Fatalf("first replacement: %+v", pg.Stats)
	}
	// Second replacement of the same (still clean) page writes nothing.
	ins := pg.Stats.PageIns
	pg.EnsureResident(p0) // back in: now a page-in, it is on store
	if pg.Stats.PageIns != ins+1 {
		t.Error("re-fault of swapped ZFOD page was not a page-in")
	}
	fillPages(pg, p0+48, 12)
	if pg.Lookup(p0).Resident() {
		t.Fatal("page p0 survived pressure; ordering changed")
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
	r := pg.AddRegion(p0, 8, Heap)
	fillPages(pg, p0, 8)
	free := pg.Pool().Free()
	pg.ReleaseRegion(r)
	if pg.Pool().Free() != free+8 {
		t.Errorf("frames not returned: %d -> %d", free, pg.Pool().Free())
	}
	if pg.resident != 0 || pg.Lookup(p0) != nil {
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
	pg.EnsureResident(p0)
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
	r := pg.AddRegion(p0, 4, Data)
	fillPages(pg, p0, 4)
	pg.ReleaseRegion(r)
	r2 := pg.AddRegion(p0+100, 2, Data)
	fillPages(pg, p0+100, 2)
	if pg.resident != 2 {
		t.Errorf("resident = %d", pg.resident)
	}
	pg.ReleaseRegion(r2)
	if pg.resident != 0 {
		t.Error("ring not empty")
	}
	// And the ring still works afterwards.
	pg.AddRegion(p0, 4, Data)
	fillPages(pg, p0, 4)
	if pg.resident != 4 {
		t.Error("ring broken after drain")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	pg, _ := newPager(8)
	pg.AddRegion(p0, 64, Data)
	fillPages(pg, p0, 20)
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
	pg.AddRegion(p0, 64, Heap)
	fillPages(pg, p0, 20)
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
	pg.AddRegion(p0, 256, Data)
	// Make everything referenced so the first sweep only clears.
	os.refOnMap = true
	fillPages(pg, p0, 80) // exceeds memory: the daemon must run
	if pg.Stats.Scans == 0 {
		t.Fatal("daemon never ran")
	}
	cleared := 0
	for vpn, ref := range os.ref {
		if p := pg.Lookup(vpn); p != nil && p.Resident() && !ref {
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
	// Every auto-registered page is a one-page region of its own, so the
	// one lookup path finds it and a neighbour faults into its own region.
	pg.EnsureResident(424243)
	if want := []Region{{Start: 424242, N: 1, Kind: Data}, {Start: 424243, N: 1, Kind: Data}}; len(pg.regions) != 2 ||
		pg.regions[0].Region != want[0] || pg.regions[1].Region != want[1] {
		t.Errorf("regions %+v, want %v", pg.regions, want)
	}
	if pg.Lookup(424242) != page || pg.Lookup(424244) != nil {
		t.Error("auto-registered pages not found by Lookup")
	}
	checkResidency(t, pg)
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
	if len(out) != pg.resident {
		t.Fatalf("ring holds %d pages, resident count says %d", len(out), pg.resident)
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
		regions[i] = pg.AddRegion(p0+addr.GVPN(i), 1, Data)
	}
	steps := []struct {
		name string
		do   func()
		want []addr.GVPN // ring from the hand, as offsets from p0
	}{
		{"fill", func() { fillPages(pg, p0, 3) }, []addr.GVPN{0, 1, 2}},
		// Above the high watermark the daemon only runs its front hand:
		// 2×3+1 scans wrap the ring twice and leave the hand on page 1.
		{"daemon wrap", pg.runDaemon, []addr.GVPN{1, 2, 0}},
		{"insert behind the hand", func() { pg.EnsureResident(p0 + 3) }, []addr.GVPN{1, 2, 0, 3}},
		{"remove the hand page", func() { pg.ReleaseRegion(regions[1]) }, []addr.GVPN{2, 0, 3}},
		{"remove behind the hand", func() { pg.ReleaseRegion(regions[3]) }, []addr.GVPN{2, 0}},
		{"remove after the hand", func() { pg.ReleaseRegion(regions[0]) }, []addr.GVPN{2}},
		{"remove the only page", func() { pg.ReleaseRegion(regions[2]) }, nil},
		{"refill", func() { fillPages(pg, p0+4, 2) }, []addr.GVPN{4, 5}},
	}
	for _, s := range steps {
		s.do()
		got := clockOrder(t, pg)
		for i := range got {
			got[i] -= p0
		}
		if !slices.Equal(got, s.want) {
			t.Fatalf("after %s: ring %v, want %v", s.name, got, s.want)
		}
		checkResidency(t, pg)
	}
	if pg.Stats.Scans != 7 {
		t.Errorf("daemon scanned %d pages, want 7", pg.Stats.Scans)
	}
}

// TestCopyFromKeepsClockOrder: a copied pager holds its own pages, linked
// in the source's ring order from the same hand, with the same statistics.
// The destination is built with the source's regions, as a fanout member
// receives its leader's.
func TestCopyFromKeepsClockOrder(t *testing.T) {
	src, os := newPager(16)
	dst, _ := newPager(16)
	both := func(start addr.GVPN, n int, kind PageKind) Region {
		dst.AddRegion(start, n, kind)
		return src.AddRegion(start, n, kind)
	}
	r := both(p0, 8, Heap)
	both(p0+64, 4, Data) // never faulted: it holds no page array
	fillPages(src, p0, 5)
	os.modified[p0+2] = true
	src.runDaemon() // the hand moves off the first page
	src.ReleaseRegion(r)
	dst.ReleaseRegion(r)
	both(p0, 8, Heap)
	fillPages(src, p0+3, 4)
	src.runDaemon()
	src.Lookup(p0 + 4).SoftDirty = true

	dst.CopyFrom(src)
	if got, want := clockOrder(t, dst), clockOrder(t, src); !slices.Equal(got, want) {
		t.Fatalf("copied ring %v, want %v", got, want)
	}
	if !dst.SamePages(src) || dst.Stats != src.Stats || dst.Cycles != src.Cycles {
		t.Fatal("the copy differs from its source")
	}
	checkResidency(t, dst)
	for p := dst.hand; p != nil; {
		if dst.Lookup(p.VPN) != p || src.Lookup(p.VPN) == p {
			t.Fatalf("page %#x shared between the source and its copy", uint64(p.VPN))
		}
		if p = p.next; p == dst.hand {
			break
		}
	}
	if dst.regions[1].pages != nil {
		t.Error("the copy allocated pages for a region its source never faulted")
	}
	dst.runDaemon()
	if dst.SamePages(src) {
		t.Fatal("SamePages missed a moved hand")
	}
}

// TestCopyFromPanicsOnDifferentRegions: a copy between pagers whose
// regions differ would leave pages without a slot, so it refuses.
func TestCopyFromPanicsOnDifferentRegions(t *testing.T) {
	for _, c := range []struct {
		name string
		dst  func(*Pager)
	}{
		{"fewer regions", func(*Pager) {}},
		{"another start", func(pg *Pager) { pg.AddRegion(p0+1, 8, Heap) }},
		{"another length", func(pg *Pager) { pg.AddRegion(p0, 9, Heap) }},
		{"another kind", func(pg *Pager) { pg.AddRegion(p0, 8, Data) }},
	} {
		src, _ := newPager(16)
		src.AddRegion(p0, 8, Heap)
		fillPages(src, p0, 2)
		dst, _ := newPager(16)
		c.dst(dst)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CopyFrom did not panic", c.name)
				}
			}()
			dst.CopyFrom(src)
		}()
	}
}

// checkResidency asserts that residency has one source of truth: a page
// reads Resident exactly when the clock ring holds it, and every page in
// the ring is the instantiated page its region holds.
func checkResidency(t *testing.T, pg *Pager) {
	t.Helper()
	inRing := map[*Page]bool{}
	for _, v := range clockOrder(t, pg) {
		p := pg.Lookup(v)
		if p == nil {
			t.Fatalf("ring page %#x is not in its region", uint64(v))
		}
		inRing[p] = true
	}
	for i := range pg.regions {
		for j := range pg.regions[i].pages {
			if p := &pg.regions[i].pages[j]; p.Resident() != inRing[p] {
				t.Fatalf("page %#x: Resident %v, in the ring %v", uint64(p.VPN), p.Resident(), inRing[p])
			}
		}
	}
}

// TestResidentIsRingMembership follows residency through a fault, a
// reclaim by the daemon, a region release and a copy.
func TestResidentIsRingMembership(t *testing.T) {
	pg, _ := newPager(8) // watermarks 2/4
	r := pg.AddRegion(p0, 16, Data)
	pg.AddRegion(p0+32, 32, Heap)
	page, _ := pg.EnsureResident(p0)
	if !page.Resident() {
		t.Fatal("faulted page is not resident")
	}
	checkResidency(t, pg)
	fillPages(pg, p0+32, 12) // the daemon reclaims p0
	if page.Resident() || pg.Stats.Reclaims == 0 {
		t.Fatalf("reclaimed page still resident (%d reclaims)", pg.Stats.Reclaims)
	}
	checkResidency(t, pg)
	fillPages(pg, p0+1, 3)
	pg.ReleaseRegion(r)
	checkResidency(t, pg)
	cp, _ := newPager(8)
	cp.AddRegion(p0+32, 32, Heap)
	cp.CopyFrom(pg)
	checkResidency(t, cp)
}

// TestLookupAtRegionEdges: Lookup finds the first and last page of a
// region, misses the pages either side of it and the pages of a region
// never faulted, and forgets a region's pages when it is released.
func TestLookupAtRegionEdges(t *testing.T) {
	pg, _ := newPager(16)
	a := pg.AddRegion(p0+10, 4, Data)
	b := pg.AddRegion(p0, 10, Heap) // registered out of order, adjacent to a
	pg.AddRegion(p0+20, 4, Data)
	for _, v := range []addr.GVPN{b.Start, b.End() - 1, a.Start, a.End() - 1} {
		if pg.Lookup(v) != nil {
			t.Fatalf("page %#x found before its first fault", uint64(v))
		}
		pg.EnsureResident(v)
		if p := pg.Lookup(v); p == nil || p.VPN != v {
			t.Fatalf("Lookup(%#x) = %+v", uint64(v), p)
		}
	}
	for _, v := range []addr.GVPN{b.Start - 1, a.End(), p0 + 20, 0} {
		if pg.Lookup(v) != nil {
			t.Errorf("Lookup(%#x) found a page no fault instantiated", uint64(v))
		}
	}
	if p := pg.Lookup(p0 + 1); p != nil {
		t.Errorf("Lookup found an unfaulted slot of a faulted region: %+v", p)
	}
	pg.ReleaseRegion(a)
	if pg.Lookup(a.Start) != nil || pg.Lookup(a.End()-1) != nil {
		t.Error("released region's pages still found")
	}
	if pg.Lookup(b.End()-1) == nil {
		t.Error("release of a dropped its neighbour's page")
	}
}

// TestPageSize pins the page record at 32 bytes on a 64-bit host: a
// region's page array costs 32 bytes a page.
func TestPageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Page{}) != 32 {
		t.Errorf("Page is %d bytes, want 32", unsafe.Sizeof(Page{}))
	}
}

// TestAddRegionRejectsPageZero: page 0 is the VPN of a slot never faulted.
func TestAddRegionRejectsPageZero(t *testing.T) {
	pg, _ := newPager(16)
	defer func() {
		if recover() == nil {
			t.Error("a region covering page 0 did not panic")
		}
	}()
	pg.AddRegion(0, 4, Data)
}
