package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/pte"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// The differential oracle for the batch loops. AccessBatch and TouchBatch
// are the engine's only implementations of the reference step; refAccess
// and refTouch below are the per-reference steps they replaced, kept as the
// reference model. Two identically built machines run the same stream, one
// through the model a reference at a time and one through the batch loops,
// and after every batch their full state must be equal.

// opEvent maps a trace.Op to its issue event, as the per-reference step
// counted it.
var opEvent = [3]counters.Event{
	trace.OpIFetch: counters.EvIFetch,
	trace.OpRead:   counters.EvRead,
	trace.OpWrite:  counters.EvWrite,
}

// refAccess is the per-reference Access the batch loop replaced.
func refAccess(e *Engine, r trace.Rec) {
	b := r.Addr.Block()
	if e.Inject != nil && e.Inject.Fire(faultinject.CounterWrap) {
		e.Ctr.InjectWraparound(8)
	}
	e.Ctr.Inc(opEvent[r.Op])
	if l, hit := e.Cache.Probe(b); hit {
		if e.Inject != nil {
			e.injectLineFaults(l)
		}
		e.Cycles += uint64(e.TP.HitCycles)
		if r.Op == trace.OpWrite {
			e.writeHit(l, r.Addr.Page(), b)
		}
		return
	}
	e.miss(r.Op, b, r.Addr.Page())
}

// refTouch is the per-reference warming step the batch loop replaced.
func refTouch(e *Engine, r trace.Rec) {
	b := r.Addr.Block()
	if l, hit := e.Cache.Probe(b); hit {
		if r.Op == trace.OpWrite {
			e.touchWriteHit(l, r.Addr.Page(), b)
		}
		return
	}
	e.touchMiss(r.Op, b, r.Addr.Page())
}

// oracleMachine is a machine assembled the way machine.New assembles one
// (which this package cannot import), plus the workload.Env a script needs.
type oracleMachine struct {
	e      *Engine
	ctr    *counters.Set
	c      *cache.Cache
	tbl    *pte.Table
	pool   *mem.Pool
	pager  *vm.Pager
	inj    *faultinject.Injector
	script *workload.Script
	code   []vm.Region
}

type oracleConfig struct {
	spec     workload.Spec
	memMB    int
	dirty    DirtyPolicy
	ref      RefPolicy
	tagCheck bool
	faults   []faultinject.Plan
	refs     int
}

func newOracleMachine(cfg oracleConfig) *oracleMachine {
	tp := timing.Default()
	ctr := counters.New()
	c := cache.New(128 << 10)
	tbl := pte.NewTable(addr.PTESegment)
	x := xlate.New(tbl, c, ctr, tp)
	pool := mem.PoolForBytes(MiB(cfg.memMB), 128)
	pager := vm.NewPager(pool, ctr, tp)
	e := NewEngine(c, x, pager, ctr, tp, cfg.dirty, cfg.ref)
	e.TagCheckFlush = cfg.tagCheck
	m := &oracleMachine{e: e, ctr: ctr, c: c, tbl: tbl, pool: pool, pager: pager}
	if inj := faultinject.New(cfg.faults...); inj.Active() {
		m.inj, e.Inject, pager.Inject = inj, inj, inj
	}
	m.script = workload.NewScript(m, 1, cfg.spec)
	pager.Runnable = m.script.Runnable
	return m
}

func (m *oracleMachine) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	r := m.pager.AddRegion(start, n, kind)
	if kind == vm.Code {
		m.code = append(m.code, r)
	}
	return r
}

func (m *oracleMachine) ReleaseRegion(r vm.Region) { m.pager.ReleaseRegion(r) }

// diffMachines names the first part of the state the reference step can
// change where a and b differ, or returns "".
func diffMachines(a, b *oracleMachine) string {
	switch {
	case !reflect.DeepEqual(a.c, b.c):
		return "cache"
	case !reflect.DeepEqual(a.tbl, b.tbl):
		return "PTE table"
	case !a.pager.SamePages(b.pager):
		return "pager pages"
	case a.pager.Stats != b.pager.Stats || a.pager.Cycles != b.pager.Cycles:
		return "pager stats"
	case !reflect.DeepEqual(a.pool, b.pool):
		return "free frames"
	case a.ctr.Mode() != b.ctr.Mode() || a.ctr.Snapshot() != b.ctr.Snapshot():
		return "counter shadow"
	case !sameCounters(a.ctr, b.ctr):
		return "hardware counters"
	case a.e.Cycles != b.e.Cycles:
		return "cycles"
	case !slices.Equal(a.inj.Log(), b.inj.Log()):
		return "injection log"
	}
	return ""
}

// sameCounters reports whether two counter sets hold the same mode, shadow
// and hardware view, spill slot included: reading a hardware counter folds
// each set's view up to date, and the folded sets then compare field by
// field.
func sameCounters(a, b *counters.Set) bool {
	a.Hardware(0)
	b.Hardware(0)
	return *a == *b
}

// oracleBatchSizes cycles the batch lengths, so batches start and end
// everywhere relative to misses, faults and daemon runs.
var oracleBatchSizes = []int{1, 7, 64, 4096, 333, 2, 1000, 4096, 4096}

// runOracle drives the two machines through cfg.refs references. The last
// 8 of every 32 batches warm through TouchBatch instead of AccessBatch, and the
// counter mode register moves every 5 batches.
func runOracle(t *testing.T, cfg oracleConfig) (model, batch *oracleMachine) {
	t.Helper()
	model, batch = newOracleMachine(cfg), newOracleMachine(cfg)
	bufM := make([]trace.Rec, trace.BatchSize)
	bufB := make([]trace.Rec, trace.BatchSize)
	done := 0
	for i := 0; done < cfg.refs; i++ {
		want := min(oracleBatchSizes[i%len(oracleBatchSizes)], cfg.refs-done)
		km := model.script.NextBatch(bufM[:want])
		kb := batch.script.NextBatch(bufB[:want])
		if km != kb || !slices.Equal(bufM[:km], bufB[:kb]) {
			t.Fatalf("batch %d: the two machines' streams diverged", i)
		}
		if km == 0 {
			break
		}
		if i%32 >= 24 {
			for _, r := range bufM[:km] {
				refTouch(model.e, r)
			}
			batch.e.TouchBatch(bufB[:kb])
		} else {
			for _, r := range bufM[:km] {
				refAccess(model.e, r)
			}
			batch.e.AccessBatch(bufB[:kb])
		}
		if i%5 == 4 {
			mode := (i / 5) % counters.NumModes
			model.ctr.SetMode(mode)
			batch.ctr.SetMode(mode)
		}
		done += km
		if f := diffMachines(model, batch); f != "" {
			t.Fatalf("after batch %d (%d refs): %s differs", i, done, f)
		}
	}
	return model, batch
}

// oraclePanic runs one batch that panics mid-way on both machines — a
// write to a code page — and requires the same state afterwards: the
// hardened runner places a panic on its reference by the issued count, so
// every tally must already be flushed when the panic unwinds.
func oraclePanic(t *testing.T, model, batch *oracleMachine, recs []trace.Rec) {
	t.Helper()
	recover1 := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	pm := recover1(func() {
		for _, r := range recs {
			refAccess(model.e, r)
		}
	})
	pb := recover1(func() { batch.e.AccessBatch(slices.Clone(recs)) })
	if pm == nil || pb == nil || fmt.Sprint(pm) != fmt.Sprint(pb) {
		t.Fatalf("panics differ: model %v, batch %v", pm, pb)
	}
	if f := diffMachines(model, batch); f != "" {
		t.Fatalf("after panic %q: %s differs", fmt.Sprint(pm), f)
	}
}

// oracleCodeBlocks returns a cached and an uncached block of m's code.
func oracleCodeBlocks(m *oracleMachine) (cached, uncached addr.GVA) {
	for _, r := range m.code {
		for i := 0; i < r.N*addr.BlocksPerPage; i++ {
			a := r.Start.Base() + addr.GVA(i*addr.BlockBytes)
			if _, hit := m.c.Probe(a.Block()); hit {
				cached = a
			} else {
				uncached = a
			}
			if cached != 0 && uncached != 0 {
				return cached, uncached
			}
		}
	}
	panic("no cached and uncached code block")
}

func TestBatchLoopsMatchPerReferenceModel(t *testing.T) {
	// At 3 MB the daemon first runs near 0.65M references (WORKLOAD1)
	// and 0.87M (SLC).
	const refs = 1_000_000
	type run struct {
		name string
		cfg  oracleConfig
	}
	var runs []run
	for _, d := range AllDirtyPolicies {
		for _, r := range RefPolicies {
			runs = append(runs, run{fmt.Sprintf("slc/%v/%v", d, r),
				oracleConfig{spec: workload.SLCSpec(), memMB: 3, dirty: d, ref: r, tagCheck: true, refs: refs}})
		}
	}
	for _, d := range []DirtyPolicy{DirtyFLUSH, DirtySPUR} {
		runs = append(runs, run{fmt.Sprintf("slc/%v/REF/tag-ignoring", d),
			oracleConfig{spec: workload.SLCSpec(), memMB: 3, dirty: d, ref: RefTRUE, refs: refs}})
	}
	for _, r := range RefPolicies {
		runs = append(runs, run{fmt.Sprintf("workload1/SPUR/%v", r),
			oracleConfig{spec: workload.Workload1Spec(), memMB: 3, dirty: DirtySPUR, ref: r, tagCheck: true, refs: refs}})
	}
	runs = append(runs, run{"slc/SPUR/MISS/injected", oracleConfig{
		spec: workload.SLCSpec(), memMB: 3, dirty: DirtySPUR, ref: RefMISS, tagCheck: true, refs: refs,
		faults: []faultinject.Plan{
			{Kind: faultinject.CounterWrap, Every: 5000, Seed: 3},
			{Kind: faultinject.DirtyBitFlip, Every: 40, Seed: 5},
			{Kind: faultinject.LineCorrupt, Every: 20000, Seed: 7},
		},
	}})

	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			model, batch := runOracle(t, tc.cfg)
			if batch.ctr.Count(counters.EvDaemonScan) == 0 {
				t.Fatal("the page daemon never ran; the run does not cover reclaim")
			}
			if tc.cfg.faults != nil && len(batch.inj.Log()) == 0 {
				t.Fatal("no fault was injected")
			}
			// A write miss to a code page panics inside miss, after a hit
			// has left a tally to flush; a write hit on one panics inside
			// writeHit.
			cached, uncached := oracleCodeBlocks(batch)
			oraclePanic(t, model, batch, []trace.Rec{
				{Op: trace.OpRead, Addr: cached},
				{Op: trace.OpWrite, Addr: uncached},
			})
			oraclePanic(t, model, batch, []trace.Rec{
				{Op: trace.OpIFetch, Addr: uncached},
				{Op: trace.OpRead, Addr: uncached},
				{Op: trace.OpWrite, Addr: uncached},
			})
		})
	}
}
