package sample

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/pte"
	"repro/internal/vm"
)

// PTERecord is one non-zero page-table entry in a machine snapshot.
type PTERecord struct {
	VPN   uint64
	Entry uint32
}

// MachineState is the complete warm state of one machine: the cache's
// packed tag/meta arrays, every valid PTE, the pager's pages and clock ring,
// the frame pool's free-list order, the counter block, and the engine's
// accumulated cycles. What it deliberately omits is everything the workload
// stream builds through the machine's environment calls — regions and
// segment allocation — and the generator's own state: generation is a pure
// function of (spec, seed), and a machine driven by the same stream up to
// the capture point already holds them.
type MachineState struct {
	CacheTags  []addr.BlockAddr
	CacheMeta  []byte
	CacheStats cache.Stats

	PTE []PTERecord

	Pager    vm.PagerState
	PoolFree []addr.PFN

	CtrMode   int
	CtrHW     [counters.HardwareCounters + 1]uint32
	CtrShadow [counters.NumEvents]uint64

	EngineCycles uint64
	FaultsByKind [4]uint64
}

// Capture copies machine m's warm state.
func Capture(m *machine.Machine) *MachineState {
	s := &MachineState{}
	s.CacheTags, s.CacheMeta = m.Cache.ExportState()
	s.CacheStats = m.Cache.Stats
	m.Table.Range(func(p addr.GVPN, e pte.Entry) bool {
		s.PTE = append(s.PTE, PTERecord{VPN: uint64(p), Entry: uint32(e)})
		return true
	})
	s.Pager = m.Pager.ExportState()
	s.PoolFree = m.Pool.ExportFree()
	s.CtrMode = m.Ctr.Mode()
	s.CtrHW = m.Ctr.HardwareSnapshot()
	s.CtrShadow = m.Ctr.Snapshot()
	s.EngineCycles = m.Engine.Cycles
	s.FaultsByKind = m.Engine.FaultsByKind
	return s
}

// Restore applies a captured state to machine m. m must already have
// received the workload environment calls the captured machine received up
// to the capture point (a fanout member gets them through multiEnv), so its
// regions and segments match; Restore then overwrites the simulated state
// on top. After Restore, m is bit-for-bit the machine the snapshot was
// captured from: driving the same subsequent references produces identical
// counters, cycles and statistics.
func Restore(m *machine.Machine, s *MachineState) error {
	if err := m.Cache.RestoreState(s.CacheTags, s.CacheMeta); err != nil {
		return err
	}
	m.Cache.Stats = s.CacheStats
	// Clear whatever entries the table holds, then install the snapshot's.
	var stale []addr.GVPN
	m.Table.Range(func(p addr.GVPN, _ pte.Entry) bool {
		stale = append(stale, p)
		return true
	})
	for _, p := range stale {
		m.Table.Set(p, 0)
	}
	for _, r := range s.PTE {
		m.Table.Set(addr.GVPN(r.VPN), pte.Entry(r.Entry))
	}
	if err := m.Pool.RestoreFree(s.PoolFree); err != nil {
		return err
	}
	if err := m.Pager.RestoreState(s.Pager); err != nil {
		return err
	}
	m.Ctr.Restore(s.CtrMode, s.CtrHW, s.CtrShadow)
	m.Engine.Cycles = s.EngineCycles
	m.Engine.FaultsByKind = s.FaultsByKind
	return nil
}

// validateNoFaults rejects configurations the sampling engine cannot
// honestly serve: injected faults fire on absolute reference counts, so a
// run that skips stream segments would fire them at different points than
// the full run it estimates.
func validateNoFaults(cfg machine.Config) error {
	if len(cfg.Faults) != 0 {
		return fmt.Errorf("sample: fault-injection plans cannot be sampled (faults fire at absolute reference positions the sampled run does not visit)")
	}
	return nil
}
