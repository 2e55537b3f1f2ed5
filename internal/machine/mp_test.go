package machine

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/trace"
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

// runShared drives the shared workload round-robin for n references.
func runShared(t *testing.T, cfg Config, cpus int, n int) (*MP, *workload.SharedWorkload) {
	t.Helper()
	m := NewMP(cfg, cpus)
	w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(cpus))
	for i := 0; i < n; i++ {
		cpu := i % cpus
		m.Access(cpu, w.Step(cpu))
	}
	return m, w
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

// TestMPDirtyFaultOncePerPage: however many CPUs write a shared page, the
// software dirty bit is set by exactly one necessary fault per residency.
func TestMPDirtyFaultOncePerPage(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 32 << 20 // no paging: each page faults dirty at most once
	m := NewMP(cfg, 4)
	env := &regionLog{MP: m}
	w := workload.NewSharedWorkload(env, 1, workload.DefaultSharedParams(4))
	for i := 0; i < 400_000; i++ {
		cpu := i % 4
		m.Access(cpu, w.Step(cpu))
	}
	// Count dirtied shared pages via the pager's software bits. The shared
	// region is the one data region the workload registers.
	var shared vm.Region
	for _, r := range env.regions {
		if r.Kind == vm.Data {
			shared = r
			break
		}
	}
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
		return float64(ev.Nef) / float64(max64(ev.Nds, 1))
	}
	r1, r8 := ratio(1), ratio(8)
	if r8 <= r1 {
		t.Errorf("excess/necessary did not grow with CPUs: 1p=%.3f 8p=%.3f", r1, r8)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestMPUnmapFlushesAllCaches: after the daemon reclaims a page, no cache
// may still hold any of its blocks.
func TestMPUnmapFlushesAllCaches(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 5 << 20
	m, w := runShared(t, cfg, 4, 600_000)
	if m.Pager.Stats.Reclaims == 0 {
		t.Skip("no reclaims at this scale; nothing to audit")
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
	_ = w
}

// TestMPSoloMatchesUniprocessorShape: a 1-CPU MP machine behaves like the
// uniprocessor on the same record stream.
func TestMPSoloMatchesUniprocessorShape(t *testing.T) {
	cfg := mpConfig()

	uni := New(cfg)
	seg := uni.AllocSegment()
	uni.AddRegion(addr.PageIn(seg, 0), 8, vm.Data)
	base := addr.PageIn(seg, 0).Base()

	mp := NewMP(cfg, 1)
	seg2 := mp.AllocSegment()
	mp.AddRegion(addr.PageIn(seg2, 0), 8, vm.Data)
	base2 := addr.PageIn(seg2, 0).Base()

	ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead, trace.OpWrite, trace.OpIFetch}
	for i := 0; i < 2000; i++ {
		off := addr.GVA((i % 900) * 32)
		op := ops[i%len(ops)]
		if op == trace.OpIFetch {
			op = trace.OpRead // the toy region is data
		}
		uni.Engine.Access(trace.Rec{Op: op, Addr: base + off})
		mp.Access(0, trace.Rec{Op: op, Addr: base2 + off})
	}
	u := uni.Ctr.Snapshot()
	p := mp.Ctr.Snapshot()
	for _, ev := range []counters.Event{counters.EvDirtyFault, counters.EvReadMiss, counters.EvWriteMiss, counters.EvPageIn} {
		if u[ev] != p[ev] {
			t.Errorf("%v: uni %d vs mp(1) %d", ev, u[ev], p[ev])
		}
	}
}

func TestAuditMPAfterStressRun(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 5 << 20
	m, _ := runShared(t, cfg, 4, 500_000)
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
