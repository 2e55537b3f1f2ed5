package machine

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/pte"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// MP is a multiprocessor SPUR workstation: up to twelve processor boards,
// each with its own 128 KB virtual-address cache and cache controller, all
// snooping one shared bus under the Berkeley Ownership protocol, sharing
// main memory, the page tables, and the operating system's pager.
//
// The paper's prototype is the one-CPU special case; the multiprocessor is
// where its design choices earn their keep — software PTE updates avoid an
// atomic-update memory system, and shared pages cached clean by several
// processors multiply the stale-copy events (each CPU's cached protection
// or page dirty bit goes stale independently).
type MP struct {
	Cfg    Config
	Bus    *coherence.Bus
	Caches []*cache.Cache
	CPUs   []*core.Engine
	Table  *pte.Table
	Pool   *mem.Pool
	Pager  *vm.Pager
	Ctr    *counters.Set
	Inject *faultinject.Injector

	cur     int // CPU whose access is in progress (for OS callbacks)
	segNext addr.SegmentID
	segFree []addr.SegmentID
}

var _ workload.Env = (*MP)(nil)
var _ vm.OS = (*MP)(nil)

// MaxCPUs is the SPUR backplane limit.
const MaxCPUs = 12

// NewMP assembles an n-processor machine.
func NewMP(cfg Config, n int) *MP {
	if n < 1 || n > MaxCPUs {
		panic(fmt.Sprintf("machine: %d CPUs (SPUR holds 1-%d boards)", n, MaxCPUs))
	}
	if cfg.MemoryBytes <= 0 || cfg.CacheBytes <= 0 {
		panic("machine: config missing sizes")
	}
	ctr := counters.New()
	tbl := pte.NewTable(PTESegment)
	pool := mem.PoolForBytes(cfg.MemoryBytes, cfg.WiredFrames)
	pager := vm.NewPager(pool, ctr, cfg.Timing)

	inj := faultinject.New(cfg.Faults...)
	// As in New: only fault-plan runs wire the injector into the hot
	// paths; a nil injector is valid and inert.
	if inj.Active() {
		pager.Inject = inj
	}
	m := &MP{
		Cfg: cfg, Bus: coherence.NewBus(), Table: tbl,
		Pool: pool, Pager: pager, Ctr: ctr, Inject: inj,
		segNext: KernelSegment + 1,
	}
	if inj.Active() {
		m.Bus.Inject = inj
	}
	for i := 0; i < n; i++ {
		c := cache.New(cfg.CacheBytes)
		c.AttachBus(m.Bus)
		x := xlate.New(tbl, c, ctr, cfg.Timing)
		e := core.NewEngine(c, x, pager, ctr, cfg.Timing, cfg.Dirty, cfg.Ref)
		e.TagCheckFlush = cfg.TagCheckFlush
		if inj.Active() {
			e.Inject = inj
		}
		m.Caches = append(m.Caches, c)
		m.CPUs = append(m.CPUs, e)
	}
	// The engines each installed themselves; the multiprocessor OS layer
	// replaces them so unmaps and reference clears reach every cache.
	pager.SetOS(m)
	return m
}

// Access drives one reference on the given CPU.
func (m *MP) Access(cpu int, r trace.Rec) {
	m.cur = cpu
	m.CPUs[cpu].Access(r)
}

// TotalCycles sums every CPU's reference-processing time plus the shared
// pager overhead.
func (m *MP) TotalCycles() uint64 {
	t := m.Pager.Cycles
	for _, e := range m.CPUs {
		t += e.Cycles
	}
	return t
}

// Events extracts the shared counters in the paper's vocabulary.
func (m *MP) Events() core.Events {
	return core.EventsFrom(m.Ctr, m.Pager.Stats, m.Cfg.Timing.Seconds(m.TotalCycles()))
}

// --- workload.Env ----------------------------------------------------------

// AddRegion implements workload.Env.
func (m *MP) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	return m.Pager.AddRegion(start, n, kind)
}

// ReleaseRegion implements workload.Env.
func (m *MP) ReleaseRegion(r vm.Region) { m.Pager.ReleaseRegion(r) }

// AllocSegment implements workload.Env.
func (m *MP) AllocSegment() addr.SegmentID {
	if k := len(m.segFree); k > 0 {
		s := m.segFree[k-1]
		m.segFree = m.segFree[:k-1]
		return s
	}
	if m.segNext >= PTESegment {
		panic("machine: global segment space exhausted")
	}
	s := m.segNext
	m.segNext++
	return s
}

// FreeSegment implements workload.Env.
func (m *MP) FreeSegment(s addr.SegmentID) {
	if s == KernelSegment || s >= PTESegment {
		panic(fmt.Sprintf("machine: freeing reserved segment %d", s))
	}
	m.segFree = append(m.segFree, s)
}

// --- vm.OS: the multiprocessor kernel --------------------------------------

// MapPage installs the PTE on the faulting CPU (whose handler is running).
func (m *MP) MapPage(pg *vm.Page) { m.CPUs[m.cur].MapPage(pg) }

// UnmapPage flushes the page from every processor's cache — on a real
// multiprocessor this is the expensive TLB-shootdown analogue the paper's
// REF policy multiplies — then invalidates the PTE once.
func (m *MP) UnmapPage(pg *vm.Page) {
	for _, e := range m.CPUs {
		e.KernelFlushPage(pg.VPN)
	}
	e := m.CPUs[m.cur]
	_, c := e.X.UpdatePTE(pg.VPN, func(pte.Entry) pte.Entry { return 0 })
	e.Cycles += c
}

// PageReferenced reads the shared PTE's reference bit per the policy.
func (m *MP) PageReferenced(pg *vm.Page) bool { return m.CPUs[m.cur].PageReferenced(pg) }

// ClearReference clears the shared reference bit; under REF the clear must
// flush the page from every cache so any processor's next touch misses.
func (m *MP) ClearReference(pg *vm.Page) {
	if m.Cfg.Ref == core.RefNONE {
		return
	}
	e := m.CPUs[m.cur]
	_, c := e.X.UpdatePTE(pg.VPN, func(en pte.Entry) pte.Entry { return en.WithReferenced(false) })
	e.Cycles += c
	if m.Cfg.Ref == core.RefTRUE {
		for _, cpu := range m.CPUs {
			cpu.KernelFlushPage(pg.VPN)
		}
	}
}

// PageModified reports the OS software dirty bit.
func (m *MP) PageModified(pg *vm.Page) bool { return pg.SoftDirty }
