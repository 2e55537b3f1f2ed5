package machine

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestNewPanicsWithoutSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Config{})
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CacheBytes != 128<<10 || cfg.MemoryBytes != 8<<20 {
		t.Errorf("default sizes: cache %d mem %d", cfg.CacheBytes, cfg.MemoryBytes)
	}
	if cfg.Dirty != core.DirtySPUR || cfg.Ref != core.RefMISS {
		t.Error("default policies should match the prototype")
	}
}

// testSeg holds the regions these tests register by hand: the first
// segment a workload allocates.
const testSeg = addr.KernelSegment + 1

func TestRunWithSliceSource(t *testing.T) {
	m := New(DefaultConfig())
	m.AddRegion(addr.PageIn(testSeg, 0), 4, vm.Data)
	base := addr.PageIn(testSeg, 0).Base()
	recs := []trace.Rec{
		{Op: trace.OpRead, Addr: base + 640},
		{Op: trace.OpWrite, Addr: base + 640},
		{Op: trace.OpRead, Addr: base + 640},
	}
	res := m.Run(trace.NewSliceSource(recs), 10)
	if res.Refs != 3 {
		t.Errorf("Refs = %d", res.Refs)
	}
	if res.Events.Misses != 1 || res.Events.Nds != 1 {
		t.Errorf("events = %+v", res.Events)
	}
	if res.Cycles == 0 || res.ElapsedSeconds <= 0 {
		t.Error("no time accounted")
	}
}

func TestRunHonorsBudget(t *testing.T) {
	m := New(DefaultConfig())
	m.AddRegion(addr.PageIn(testSeg, 0), 4, vm.Data)
	base := addr.PageIn(testSeg, 0).Base()
	var recs []trace.Rec
	for i := 0; i < 100; i++ {
		recs = append(recs, trace.Rec{Op: trace.OpRead, Addr: base + 640})
	}
	res := m.Run(trace.NewSliceSource(recs), 40)
	if res.Refs != 40 {
		t.Errorf("Refs = %d, want 40 (budget)", res.Refs)
	}
}

func TestRunSpecSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 300_000
	res := RunSpec(cfg, workload.SLCSpec())
	if res.Refs != 300_000 {
		t.Fatalf("Refs = %d", res.Refs)
	}
	ev := res.Events
	if ev.Refs != uint64(res.Refs) {
		t.Errorf("counter refs %d != run refs %d", ev.Refs, res.Refs)
	}
	if ev.Misses == 0 || ev.Nds == 0 || ev.PageIns == 0 {
		t.Errorf("dead run: %+v", ev)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() core.Events {
		cfg := DefaultConfig()
		cfg.MemoryBytes = 5 << 20
		cfg.TotalRefs = 200_000
		cfg.Seed = 99
		return RunSpec(cfg, workload.Workload1Spec()).Events
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same config produced different events:\n%+v\n%+v", a, b)
	}
}

func TestPageInStallOverlap(t *testing.T) {
	// With a multiprogrammed source (Runnable > 1) the pager charges only
	// the overlap fraction of each stall; a bare source charges it fully.
	mkRecs := func(m *Machine) []trace.Rec {
		m.AddRegion(addr.PageIn(testSeg, 0), 64, vm.Data)
		base := addr.PageIn(testSeg, 0).Base()
		var recs []trace.Rec
		for i := 0; i < 32; i++ {
			recs = append(recs, trace.Rec{Op: trace.OpRead, Addr: base + addr.GVA(i*addr.PageBytes)})
		}
		return recs
	}
	cfg := DefaultConfig()

	m1 := New(cfg)
	m1.Run(trace.NewSliceSource(mkRecs(m1)), 1<<30)
	solo := m1.Pager.Cycles

	m2 := New(cfg)
	src := trace.NewSliceSource(mkRecs(m2))
	m2.Pager.Runnable = func() int { return 3 }
	m2.Run(src, 1<<30)
	shared := m2.Pager.Cycles

	if shared >= solo {
		t.Errorf("overlapped stalls (%d) not cheaper than solo (%d)", shared, solo)
	}
}

func TestPolicyConfigsPropagate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dirty = core.DirtyFAULT
	cfg.Ref = core.RefNONE
	cfg.TagCheckFlush = false
	m := New(cfg)
	if m.Engine.Dirty != core.DirtyFAULT || m.Engine.Ref != core.RefNONE || m.Engine.TagCheckFlush {
		t.Error("config not propagated to engine")
	}
}

func TestAuditAfterStressRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 400_000
	m := New(cfg)
	script := workload.NewScript(m, 3, workload.Workload1Spec())
	m.Run(script, cfg.TotalRefs)
	if err := Audit(m); err != nil {
		t.Fatalf("audit failed: %v", err)
	}
}

func TestAuditCatchesCorruption(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.AddRegion(addr.PageIn(testSeg, 0), 4, vm.Data)
	base := addr.PageIn(testSeg, 0).Base()
	m.Run(trace.NewSliceSource([]trace.Rec{{Op: trace.OpRead, Addr: base + 640}}), 10)
	if err := Audit(m); err != nil {
		t.Fatalf("clean machine failed audit: %v", err)
	}
	// Corrupt: invalidate the PTE behind the cache's back.
	m.Table.Set(base.Page(), 0)
	if Audit(m) == nil {
		t.Error("audit missed a cached block with an invalid PTE")
	}
}

func TestFrameConservationUnderStress(t *testing.T) {
	// After heavy paging, every allocatable frame is either free or holds
	// exactly one resident page: the pager never leaks or double-uses.
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 500_000
	m := New(cfg)
	script := workload.NewScript(m, 7, workload.SLCSpec())
	m.Run(script, cfg.TotalRefs)
	// Scan every page of the first 16 segments, which cover the three SLC
	// allocates: resident pages hold distinct frames, and they and the
	// free frames together are exactly the allocatable ones. A scan that
	// missed a segment would fall short of the allocatable count.
	seen := map[uint32]bool{}
	for p, end := addr.GVPN(0), addr.PageIn(16, 0); p < end; p++ {
		pg := m.Pager.Lookup(p)
		if pg == nil || !pg.Resident() {
			continue
		}
		if seen[uint32(pg.Frame)] {
			t.Fatalf("frame %d holds two pages", pg.Frame)
		}
		seen[uint32(pg.Frame)] = true
	}
	if got := len(seen) + m.Pool.Free(); got != m.Pool.Allocatable() {
		t.Errorf("frames: resident+free = %d, allocatable = %d", got, m.Pool.Allocatable())
	}
}

// TestBatchedRunMatchesPerRef runs the same machine and workload twice —
// once through Run, once through a per-reference Next + Access loop — and
// requires identical results. The stream being identical is necessary but not
// sufficient: batch generation runs ahead of consumption, so a job releasing
// a heap generation (or a reaped task tearing its regions down) mid-batch
// would unmap pages before the machine replays the references generated
// while they existed. The spec here is tuned to make that constant traffic:
// tiny heap generations with a high allocation rate, short-lived foreground
// jobs, and a fast monitor, all switching mid-batch on a sub-batch quantum.
func TestBatchedRunMatchesPerRef(t *testing.T) {
	churny := func(name string, refs int64) workload.JobSpec {
		return workload.JobSpec{Params: workload.JobParams{
			Name: name, Refs: refs,
			CodePages: 4, HotCodeFrac: 0.3,
			DataPages: 96, HeapPages: 2, StackPages: 2,
			PIFetch: 0.5, PJump: 0.05, PFarJump: 0.1,
			PStack: 0.1, PAlloc: 0.3, PScanHeap: 0.1,
			PWritePage: 0.5, WriteRO: 0.3, WriteRMW: 0.2,
			ReadPassWrite: 0.01, PBackWrite: 0.01,
			PSeq: 0.3, PHotData: 0.3, HotDataFrac: 0.25, PHotWrite: 0.3,
			PRevisitWrite: 0.1, WindowPages: 4,
		}}
	}
	spec := workload.Spec{
		Name:       "churn",
		Background: []workload.JobSpec{churny("bg", 1)},
		Foreground: []workload.JobSpec{churny("fg1", 9_000), churny("fg2", 6_000)},
		Monitors: []workload.MonitorSpec{{
			Spec:   churny("mon", 2_000),
			Period: 11_000,
		}},
		Quantum: 3_000,
	}
	cfg := DefaultConfig()
	cfg.MemoryBytes = 1 << 20
	m := New(cfg)
	batch := m.Run(workload.NewScript(m, 11, spec), 300_000)

	// Reference: one Next and one Access per reference.
	mRef := New(cfg)
	s := workload.NewScript(mRef, 11, spec)
	mRef.Pager.Runnable = s.Runnable
	for mRef.refs < 300_000 {
		rec, ok := s.Next()
		if !ok {
			break
		}
		mRef.Engine.Access(rec)
		mRef.refs++
	}
	perRef := mRef.Snapshot()
	if batch != perRef {
		t.Errorf("batched run diverged from per-reference run:\nbatched %+v\nper-ref %+v", batch, perRef)
	}
	if batch.Refs != 300_000 || batch.Pager.PageOuts == 0 || batch.Pager.ZeroFills == 0 {
		t.Errorf("run too quiet to prove anything: %+v", batch.Pager)
	}
}

// TestTable41WorkloadOneStreamRuns replays the stream of Table 4.1's
// WORKLOAD1 cell at 5 MB under NOREF, repetition 0 at seed 1 — the first
// default-scale run on which a monitor's due point fell on a task's last
// reference. Batched generation then reaped the task, releasing its
// regions, while that reference was still waiting to be consumed, and the
// run died with "fault outside any region" after 14,399,999 references.
func TestTable41WorkloadOneStreamRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = core.MiB(5)
	cfg.Ref = core.RefNONE
	cfg.Seed = parallel.DeriveSeed(1, 11, 0)
	cfg.TotalRefs = 14_500_000
	_, res, fail := RunSpecHardened(cfg, workload.Workload1Spec(), RunOptions{})
	if fail != nil {
		t.Fatalf("run failed after %d refs: %s", fail.Refs, fail.Reason)
	}
	if res.Refs != cfg.TotalRefs {
		t.Errorf("ran %d refs, want %d", res.Refs, cfg.TotalRefs)
	}
}
