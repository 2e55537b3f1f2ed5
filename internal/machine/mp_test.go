package machine

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/vm"
	"repro/internal/workload"
)

func mpConfig() Config {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 6 << 20
	return cfg
}

func TestNewMPBounds(t *testing.T) {
	for _, bad := range []int{0, 13, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMP(%d) accepted", bad)
				}
			}()
			NewMP(mpConfig(), bad)
		}()
	}
	if m := NewMP(mpConfig(), 4); len(m.CPUs) != 4 || m.Bus.Ports() != 4 {
		t.Error("wrong CPU/bus wiring")
	}
}

// regionLog is an MP as a workload's environment that records the regions
// the workload registers.
type regionLog struct {
	*MP
	regions []vm.Region
}

func (r *regionLog) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	reg := r.MP.AddRegion(start, n, kind)
	r.regions = append(r.regions, reg)
	return reg
}

// runShared drives the shared workload round-robin for n references and
// returns the machine and the shared data region, the one data region the
// workload registers.
func runShared(t *testing.T, cfg Config, cpus int, n int) (*MP, vm.Region) {
	t.Helper()
	m := NewMP(cfg, cpus)
	env := &regionLog{MP: m}
	w := workload.NewSharedWorkload(env, 1, workload.DefaultSharedParams(cpus))
	for i := 0; i < n; i++ {
		cpu := i % cpus
		m.Access(cpu, w.Step(cpu))
	}
	for _, r := range env.regions {
		if r.Kind == vm.Data {
			return m, r
		}
	}
	t.Fatal("shared workload registered no data region")
	return nil, vm.Region{}
}

// TestMPCoherenceInvariants runs a real shared workload and then audits
// every cache line: a block may have at most one owner, and an exclusively
// owned block may be cached nowhere else.
func TestMPCoherenceInvariants(t *testing.T) {
	m, _ := runShared(t, mpConfig(), 4, 400_000)
	holders := map[addr.BlockAddr][]coherence.State{}
	for _, c := range m.Caches {
		for i := 0; i < c.Lines(); i++ {
			l := c.LineAt(i)
			if l.Valid() {
				holders[l.Addr] = append(holders[l.Addr], l.State)
			}
		}
	}
	if len(holders) == 0 {
		t.Fatal("caches empty after run")
	}
	sharedBlocks := 0
	for b, states := range holders {
		owners, excl := 0, 0
		for _, s := range states {
			if s.Owned() {
				owners++
			}
			if s == coherence.OwnedExclusive {
				excl++
			}
		}
		if owners > 1 {
			t.Fatalf("block %#x owned by %d caches: %v", uint64(b), owners, states)
		}
		if excl > 0 && len(states) > 1 {
			t.Fatalf("block %#x exclusive yet cached %d times: %v", uint64(b), len(states), states)
		}
		if len(states) > 1 {
			sharedBlocks++
		}
	}
	if sharedBlocks == 0 {
		t.Error("no block was ever shared between caches; workload not exercising sharing")
	}
}

// TestMPDirtyFaultOncePerPage: however many CPUs write a shared page, the
// software dirty bit is set by exactly one necessary fault per residency.
func TestMPDirtyFaultOncePerPage(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 32 << 20 // no paging: each page faults dirty at most once
	m, shared := runShared(t, cfg, 4, 400_000)
	// Count dirtied shared pages via the pager's software bits.
	dirtyPages := 0
	for p := shared.Start; p < shared.End(); p++ {
		if pg := m.Pager.Lookup(p); pg != nil && pg.SoftDirty {
			dirtyPages++
		}
	}
	nds := m.Ctr.Count(counters.EvDirtyFault)
	// Some dirty faults belong to private heap/stack pages; shared-page
	// faults cannot exceed one per dirty page.
	if nds == 0 || dirtyPages == 0 {
		t.Fatalf("nds=%d dirtyShared=%d", nds, dirtyPages)
	}
	if m.Events().Nds != nds {
		t.Error("Events() disagrees with counters")
	}
}

// TestMPStaleCopiesScaleWithCPUs: with dirty bits emulated by protection,
// a page's first write repairs only the writer's cached blocks — every
// other CPU still holds stale read-only copies and faults on its first
// write. More CPUs, more excess faults per necessary fault: the
// multiprocessor is where the paper's SPUR scheme earns more than 16%.
func TestMPStaleCopiesScaleWithCPUs(t *testing.T) {
	ratio := func(cpus int) float64 {
		cfg := mpConfig()
		cfg.MemoryBytes = 32 << 20
		cfg.Dirty = core.DirtyFAULT
		m := NewMP(cfg, cpus)
		w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(cpus))
		for i := 0; i < cpus*250_000; i++ {
			cpu := i % cpus
			m.Access(cpu, w.Step(cpu))
		}
		ev := m.Events()
		return float64(ev.Nef) / float64(max(ev.Nds, 1))
	}
	r1, r8 := ratio(1), ratio(8)
	if r8 <= r1 {
		t.Errorf("excess/necessary did not grow with CPUs: 1p=%.3f 8p=%.3f", r1, r8)
	}
}

// holders counts the caches holding any block of page p.
func holders(m *MP, p addr.GVPN) int {
	n := 0
	for _, c := range m.Caches {
		for b := p.FirstBlock(); b < (p + 1).FirstBlock(); b++ {
			if _, ok := c.Probe(b); ok {
				n++
				break
			}
		}
	}
	return n
}

// TestMPUnmapFlushesAllCaches: after the daemon reclaims a page, no cache
// may still hold any of its blocks.
func TestMPUnmapFlushesAllCaches(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 2 << 20
	m, _ := runShared(t, cfg, 4, 600_000)
	if m.Pager.Stats.Reclaims == 0 {
		t.Fatal("no reclaims: the run never unmapped a page")
	}
	// Audit: every valid non-PTE cache line belongs to a resident page.
	for ci, c := range m.Caches {
		for i := 0; i < c.Lines(); i++ {
			l := c.LineAt(i)
			if !l.Valid() || l.IsPTE {
				continue
			}
			pg := m.Pager.Lookup(l.Addr.Page())
			if pg == nil || !pg.Resident() {
				t.Fatalf("cache %d holds block %#x of a non-resident page", ci, uint64(l.Addr))
			}
		}
	}
}

// TestMPClearReferenceReachesAllCaches: under REF, clearing a shared page's
// reference bit flushes it from every cache, so any processor's next touch
// misses and sets the bit; under MISS the cached copies stay.
func TestMPClearReferenceReachesAllCaches(t *testing.T) {
	for _, ref := range []core.RefPolicy{core.RefTRUE, core.RefMISS} {
		cfg := mpConfig()
		cfg.MemoryBytes = 32 << 20 // no paging: the test alone clears
		cfg.Ref = ref
		m, shared := runShared(t, cfg, 4, 400_000)
		p := shared.Start
		for p < shared.End() && holders(m, p) < 2 {
			p++
		}
		if p == shared.End() {
			t.Fatalf("%v: no shared page cached by two CPUs", ref)
		}
		before := holders(m, p)
		m.ClearReference(m.Pager.Lookup(p))
		after := holders(m, p)
		t.Logf("%v: page %#x held by %d caches, %d after the clear", ref, uint64(p), before, after)
		if ref == core.RefTRUE && after != 0 {
			t.Errorf("REF: %d of %d caches still hold the page after its reference clear", after, before)
		}
		if ref == core.RefMISS && after != before {
			t.Errorf("MISS: the reference clear changed the holders from %d to %d", before, after)
		}
	}
}

// TestMPSoloMatchesUniprocessorShape: a 1-CPU MP is the uniprocessor. On a
// shared-workload run that pages heavily, every counter, the total cycles
// and the pager statistics match under every dirty and reference policy.
func TestMPSoloMatchesUniprocessorShape(t *testing.T) {
	const refs = 300_000
	for _, dirty := range core.AllDirtyPolicies {
		for _, ref := range core.RefPolicies {
			cfg := mpConfig()
			cfg.MemoryBytes = 1 << 20
			cfg.Dirty, cfg.Ref = dirty, ref

			uni := New(cfg)
			w := workload.NewSharedWorkload(uni, 1, workload.DefaultSharedParams(1))
			for i := 0; i < refs; i++ {
				uni.Engine.Access(w.Step(0))
			}
			mp := NewMP(cfg, 1)
			w = workload.NewSharedWorkload(mp, 1, workload.DefaultSharedParams(1))
			for i := 0; i < refs; i++ {
				mp.Access(0, w.Step(0))
			}

			if uni.Pager.Stats.PageIns == 0 {
				t.Fatalf("%v/%v: the run never paged", dirty, ref)
			}
			if u, p := uni.Ctr.Snapshot(), mp.Ctr.Snapshot(); u != p {
				t.Errorf("%v/%v: counters differ:\nuni   %v\nmp(1) %v", dirty, ref, u, p)
			}
			if u, p := uni.Engine.TotalCycles(), mp.TotalCycles(); u != p {
				t.Errorf("%v/%v: cycles uni %d vs mp(1) %d", dirty, ref, u, p)
			}
			if uni.Pager.Stats != mp.Pager.Stats {
				t.Errorf("%v/%v: pager stats differ:\nuni   %+v\nmp(1) %+v", dirty, ref, uni.Pager.Stats, mp.Pager.Stats)
			}
		}
	}
}

func TestAuditMPAfterStressRun(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 2 << 20
	m, _ := runShared(t, cfg, 4, 500_000)
	if m.Pager.Stats.Reclaims == 0 {
		t.Fatal("no reclaims: the run never unmapped a page")
	}
	if err := AuditMP(m); err != nil {
		t.Fatalf("MP audit failed: %v", err)
	}
}

func TestMPBusUtilizationGrowsWithCPUs(t *testing.T) {
	util := func(cpus int) float64 {
		cfg := mpConfig()
		cfg.MemoryBytes = 32 << 20
		m := NewMP(cfg, cpus)
		w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(cpus))
		refs := cpus * 150_000
		for i := 0; i < refs; i++ {
			m.Access(i%cpus, w.Step(i%cpus))
		}
		// Per-CPU wall time is roughly total/cpus; the shared bus sees
		// the sum, so its utilization grows with the board count.
		return m.Bus.Utilization(m.TotalCycles() / uint64(cpus))
	}
	u1, u8 := util(1), util(8)
	if u8 <= u1 {
		t.Errorf("bus utilization did not grow with CPUs: 1p=%.3f 8p=%.3f", u1, u8)
	}
}
