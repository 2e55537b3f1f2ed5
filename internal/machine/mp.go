package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/pte"
	"repro/internal/trace"
	"repro/internal/vm"
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
//
// MP is the uniprocessor Machine plus boards on one bus. The embedded
// Machine is CPU 0's board (its Cache, X and Engine) and everything the
// boards share: the page table, pool, pager, counters and injector. The
// Run, RunHardened and Snapshot methods MP inherits drive and read CPU 0
// alone: Snapshot's cycles and reference count are CPU 0's, beside the
// shared counters and pager statistics. Access, Events and TotalCycles
// cover every board.
type MP struct {
	*Machine
	Bus    *coherence.Bus
	Caches []*cache.Cache // per board; Caches[0] is the Machine's Cache
	CPUs   []*core.Engine // per board; CPUs[0] is the Machine's Engine

	cur int // CPU whose access is in progress (for OS callbacks)
}

var _ vm.OS = (*MP)(nil)

// MaxCPUs is the SPUR backplane limit.
const MaxCPUs = 12

// NewMP assembles an n-processor machine: New's machine as board 0, then
// boards 1 to n-1 over its table, pager and counters, attached to the bus
// in board order.
func NewMP(cfg Config, n int) *MP {
	if n < 1 || n > MaxCPUs {
		panic(fmt.Sprintf("machine: %d CPUs (SPUR holds 1-%d boards)", n, MaxCPUs))
	}
	m := &MP{Machine: New(cfg), Bus: coherence.NewBus()}
	// Board 0's engine holds the injector only on fault-plan runs (see
	// New); the bus and the other boards take the same wiring.
	m.Bus.Inject = m.Engine.Inject
	m.Cache.AttachBus(m.Bus)
	m.Caches = []*cache.Cache{m.Cache}
	m.CPUs = []*core.Engine{m.Engine}
	for i := 1; i < n; i++ {
		c := cache.New(cfg.CacheBytes)
		c.AttachBus(m.Bus)
		x := xlate.New(m.Table, c, m.Ctr, cfg.Timing)
		e := core.NewEngine(c, x, m.Pager, m.Ctr, cfg.Timing, cfg.Dirty, cfg.Ref)
		e.TagCheckFlush = cfg.TagCheckFlush
		e.Inject = m.Engine.Inject
		m.Caches = append(m.Caches, c)
		m.CPUs = append(m.CPUs, e)
	}
	// The engines each installed themselves; the multiprocessor OS layer
	// replaces them so unmaps and reference clears reach every cache.
	m.Pager.SetOS(m)
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
