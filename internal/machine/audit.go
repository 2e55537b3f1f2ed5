package machine

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
)

// Audit checks the cross-structure invariants of a machine after (or
// during) a run: every valid cache line belongs to a resident page with a
// valid PTE, PTE lines belong to the reserved segment, and the PTE's frame
// matches the pager's. It returns the first violation found, or nil.
//
// The simulator's tests run audits after stress runs; a released simulator
// keeps the auditor public so new policies and workloads can be checked the
// same way.
func Audit(m *Machine) error {
	return auditCache(m, m.Cache)
}

// AuditMP audits every processor's cache of a multiprocessor, then the
// coherence invariants across them: at most one owner per block, and an
// exclusively owned block cached nowhere else.
func AuditMP(m *MP) error {
	for i, c := range m.Caches {
		if err := auditCache(m.Machine, c); err != nil {
			return fmt.Errorf("cpu %d: %w", i, err)
		}
	}
	type holder struct {
		owners, copies int
		exclusive      bool
	}
	blocks := map[addr.BlockAddr]*holder{}
	for _, c := range m.Caches {
		for i := 0; i < c.Lines(); i++ {
			l := c.LineAt(i)
			if !l.Valid() {
				continue
			}
			h := blocks[l.Addr]
			if h == nil {
				h = &holder{}
				blocks[l.Addr] = h
			}
			h.copies++
			if l.State.Owned() {
				h.owners++
			}
			if l.State == coherence.OwnedExclusive {
				h.exclusive = true
			}
		}
	}
	// Check in ascending block order so a multi-violation machine reports
	// the same first breach on every run — failure artifacts are diffed
	// and deduplicated, so the report must be as deterministic as the run.
	addrs := make([]addr.BlockAddr, 0, len(blocks))
	for b := range blocks {
		addrs = append(addrs, b)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, b := range addrs {
		h := blocks[b]
		if h.owners > 1 {
			return fmt.Errorf("block %#x has %d owners", uint64(b), h.owners)
		}
		if h.exclusive && h.copies > 1 {
			return fmt.Errorf("block %#x exclusive yet cached %d times", uint64(b), h.copies)
		}
	}
	return nil
}

// auditCache checks one cache's lines against m's pager and page table,
// which every board of a multiprocessor shares.
func auditCache(m *Machine, c *cache.Cache) error {
	for i := 0; i < c.Lines(); i++ {
		l := c.LineAt(i)
		if !l.Valid() {
			continue
		}
		page := l.Addr.Page()
		if l.IsPTE {
			if uint64(page.Base())>>addr.SegmentShift != uint64(addr.PTESegment) {
				return fmt.Errorf("line %d: PTE block %#x outside the PTE segment", i, uint64(l.Addr))
			}
			continue
		}
		pg := m.Pager.Lookup(page)
		if pg == nil || !pg.Resident() {
			return fmt.Errorf("line %d: block %#x of non-resident page %#x", i, uint64(l.Addr), uint64(page))
		}
		e := m.Table.Lookup(page)
		if !e.Valid() {
			return fmt.Errorf("line %d: block %#x cached but PTE invalid", i, uint64(l.Addr))
		}
		if e.PFN() != pg.Frame {
			return fmt.Errorf("page %#x: PTE frame %d != pager frame %d", uint64(page), e.PFN(), pg.Frame)
		}
	}
	return nil
}
