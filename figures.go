package spur

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Figure31 reproduces Figure 3.1 as a live demonstration: it runs the
// multiple-cached-blocks scenario on a real machine under the FAULT policy
// and narrates what the hardware and the fault handler do at each step,
// ending with the excess fault the figure is about.
func Figure31() string {
	cfg := DefaultConfig()
	cfg.MemoryBytes = MiB(1)
	cfg.Dirty = DirtyFAULT
	m := NewMachine(cfg)
	seg := addr.KernelSegment + 1 // the first segment a workload allocates
	m.AddRegion(addr.PageIn(seg, 0), 4, vm.Data)
	pageA := addr.PageIn(seg, 0)
	// Avoid the page's PTE-block cache index (low block numbers).
	blk := func(i int) addr.GVA { return pageA.Base() + addr.GVA((20+i)*addr.BlockBytes) }

	var b strings.Builder
	b.WriteString("Figure 3.1: Example of Multiple Cache Blocks (live run, FAULT policy)\n\n")
	step := func(format string, args ...any) { fmt.Fprintf(&b, "  %s\n", fmt.Sprintf(format, args...)) }

	prot := func(i int) pte.Prot {
		if l, ok := m.Cache.Probe(blk(i).Block()); ok {
			return l.Prot()
		}
		return pte.ProtNone
	}

	m.Engine.Access(trace.Rec{Op: trace.OpRead, Addr: blk(0)})
	m.Engine.Access(trace.Rec{Op: trace.OpRead, Addr: blk(1)})
	step("read  block 0, block 1 of Page A: both cached with protection %s (page clean, PTE maps it %s)",
		prot(0), m.Table.Lookup(pageA).Prot())

	m.Engine.Access(trace.Rec{Op: trace.OpWrite, Addr: blk(0)})
	step("write block 0: protection fault -> handler sets the dirty bit, raises the PTE to %s  [necessary fault #%d]",
		m.Table.Lookup(pageA).Prot(), m.Ctr.Count(counters.EvDirtyFault))
	step("      block 1 still cached with its old %s copy: changing the PTE does not affect blocks already in the cache",
		prot(1))

	m.Engine.Access(trace.Rec{Op: trace.OpWrite, Addr: blk(1)})
	step("write block 1: faults again although the page is writable  [excess fault #%d]",
		m.Ctr.Count(counters.EvExcessFault))

	m.Engine.Access(trace.Rec{Op: trace.OpWrite, Addr: blk(1)})
	step("write block 1 again: proceeds without a fault (cached protection repaired to %s)", prot(1))

	fmt.Fprintf(&b, "\n  totals: %d necessary fault, %d excess fault\n",
		m.Ctr.Count(counters.EvDirtyFault), m.Ctr.Count(counters.EvExcessFault))
	b.WriteString(`
  Page Table Entry          Cache
  Page A  [RO -> RW]        block 0 of A  [RO -> RW at fault]
                            block 1 of A  [RO, stale -> excess fault on write]
`)
	return b.String()
}

// Figure32 renders the page-table-entry and cache-line formats (Figure 3.2).
func Figure32() string {
	return pte.Format() + "\n\n" + cache.Format()
}
