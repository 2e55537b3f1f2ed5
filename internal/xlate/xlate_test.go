package xlate

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/timing"
)

const pteSeg = addr.SegmentID(255)

func newUnit() (*Unit, *cache.Cache, *counters.Set) {
	tbl := pte.NewTable(pteSeg)
	c := cache.New(128 * 1024)
	ctr := counters.New()
	return New(tbl, c, ctr, timing.Default()), c, ctr
}

// translated is one translation as the engine's miss path runs it.
type translated struct {
	entry  pte.Entry
	cycles uint64
	pteHit bool
}

// translate runs TranslateCached and, when the PTE block is absent,
// TranslateMiss, as the engine's miss path does.
func translate(u *Unit, p addr.GVPN) translated {
	if e, c, hit := u.TranslateCached(p); hit {
		return translated{e, c, true}
	}
	e, c, _ := u.TranslateMiss(p)
	return translated{e, c, false}
}

func TestTranslateMissThenHit(t *testing.T) {
	u, _, ctr := newUnit()
	p := addr.PageIn(3, 17)
	u.Table().Set(p, pte.Make(7, pte.ProtReadWrite))

	// First translation: PTE block not cached -> L2 access + fetch.
	r1 := translate(u, p)
	if r1.pteHit {
		t.Error("first translation hit")
	}
	if !r1.entry.Valid() || r1.entry.PFN() != 7 {
		t.Errorf("entry = %v", r1.entry)
	}
	tp := timing.Default()
	wantMiss := uint64(tp.PTECheckCycles) + uint64(tp.L2WordCycles) + tp.BlockFetchCycles()
	if r1.cycles != wantMiss {
		t.Errorf("miss cycles = %d, want %d", r1.cycles, wantMiss)
	}

	// Second translation: the PTE block is now cached.
	r2 := translate(u, p)
	if !r2.pteHit {
		t.Error("second translation missed")
	}
	if r2.cycles != uint64(timing.Default().PTECheckCycles) {
		t.Errorf("hit cycles = %d", r2.cycles)
	}

	if ctr.Count(counters.EvXlateWalk) != 2 || ctr.Count(counters.EvPTEHit) != 1 ||
		ctr.Count(counters.EvPTEMiss) != 1 || ctr.Count(counters.EvL2Access) != 1 {
		t.Errorf("counter mix: walk=%d hit=%d miss=%d l2=%d",
			ctr.Count(counters.EvXlateWalk), ctr.Count(counters.EvPTEHit),
			ctr.Count(counters.EvPTEMiss), ctr.Count(counters.EvL2Access))
	}
}

func TestNeighbouringPTEsShareABlock(t *testing.T) {
	u, _, ctr := newUnit()
	// Eight consecutive pages' PTEs share one 32-byte block: after
	// translating the first, the other seven hit.
	const perBlock = addr.BlockBytes / pte.PTESize
	base := addr.PageIn(3, 0)
	for i := 0; i < perBlock; i++ {
		u.Table().Set(base+addr.GVPN(i), pte.Make(addr.PFN(i), pte.ProtReadOnly))
	}
	translate(u, base)
	for i := 1; i < perBlock; i++ {
		if r := translate(u, base+addr.GVPN(i)); !r.pteHit {
			t.Errorf("PTE %d did not hit after neighbour fetched", i)
		}
	}
	if ctr.Count(counters.EvPTEMiss) != 1 {
		t.Errorf("PTE misses = %d, want 1", ctr.Count(counters.EvPTEMiss))
	}
}

func TestTranslateInvalidPage(t *testing.T) {
	u, _, _ := newUnit()
	r := translate(u, addr.PageIn(2, 99))
	if r.entry.Valid() {
		t.Error("translation of unmapped page returned valid entry")
	}
}

func TestPTECompetesForCacheLines(t *testing.T) {
	u, c, _ := newUnit()
	p := addr.PageIn(3, 0)
	u.Table().Set(p, pte.Make(1, pte.ProtReadOnly))
	translate(u, p)

	// A data block that maps to the same line frame evicts the PTE block.
	pteBlock := u.Table().PTEAddr(p).Block()
	conflict := pteBlock + addr.BlockAddr(c.Lines())
	c.Fill(conflict, 1 /* UnOwned */, pte.ProtReadOnly, false, false, false)
	if _, hit := c.Probe(pteBlock); hit {
		t.Fatal("the PTE block still probes after a conflicting data fill")
	}
	if r := translate(u, p); r.pteHit {
		t.Error("PTE hit after its block was displaced by data")
	}
}

func TestUpdatePTEWhenCached(t *testing.T) {
	u, c, _ := newUnit()
	p := addr.PageIn(3, 4)
	u.Table().Set(p, pte.Make(9, pte.ProtReadOnly))
	translate(u, p) // cache the PTE block

	e, cycles := u.UpdatePTE(p, func(e pte.Entry) pte.Entry { return e.WithDirty(true) })
	if !e.Dirty() || !u.Table().Lookup(p).Dirty() {
		t.Error("update not applied")
	}
	if cycles != 0 {
		t.Errorf("cached PTE update cost %d cycles", cycles)
	}
	l, hit := c.Probe(u.Table().PTEAddr(p).Block())
	if !hit || !l.BlockDirty() {
		t.Error("PTE block not marked modified after software update")
	}
}

func TestUpdatePTEWhenNotCached(t *testing.T) {
	u, _, _ := newUnit()
	p := addr.PageIn(3, 4)
	u.Table().Set(p, pte.Make(9, pte.ProtReadOnly))
	_, cycles := u.UpdatePTE(p, func(e pte.Entry) pte.Entry { return e.WithDirty(true) })
	if cycles == 0 {
		t.Error("uncached PTE update cost nothing")
	}
	if r := translate(u, p); !r.pteHit {
		t.Error("PTE block not resident after update")
	}
}

func TestCheckPTE(t *testing.T) {
	u, _, ctr := newUnit()
	p := addr.PageIn(3, 8)
	u.Table().Set(p, pte.Make(2, pte.ProtReadWrite).WithDirty(true))
	e, cycles := u.CheckPTE(p)
	if !e.Dirty() {
		t.Error("CheckPTE returned wrong entry")
	}
	if cycles == 0 {
		t.Error("CheckPTE free")
	}
	if ctr.Count(counters.EvDirtyCheck) != 1 {
		t.Error("dirty-check not counted")
	}
	// Second check is the cheap cached case (t_dc's 3-cycle component).
	_, cycles = u.CheckPTE(p)
	if cycles != uint64(timing.Default().PTECheckCycles) {
		t.Errorf("cached check = %d cycles", cycles)
	}
}
