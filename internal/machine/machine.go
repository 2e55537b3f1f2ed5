// Package machine assembles the full SPUR simulator — virtual-address
// cache, in-cache translation, pager, policy engine, performance counters —
// and runs workloads against it.
package machine

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
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

// Config selects the machine and experiment parameters.
type Config struct {
	// MemoryBytes is main memory (the paper sweeps 5, 6, 8 MB).
	MemoryBytes int
	// CacheBytes is the unified virtual-address cache (128 KB).
	CacheBytes int
	// WiredFrames is the kernel + wired page-table reservation.
	WiredFrames int

	// Dirty and Ref select the policies under test.
	Dirty core.DirtyPolicy
	Ref   core.RefPolicy
	// TagCheckFlush selects the tag-checking page flush the paper
	// assumes for its comparisons (false = SPUR's tag-ignoring flush).
	TagCheckFlush bool

	// Timing is the cycle-cost parameter set.
	Timing timing.Params

	// Seed drives the workload generators; repetitions vary it.
	Seed uint64
	// TotalRefs is the reference budget of one run.
	TotalRefs int64

	// Faults schedules deterministic fault injection (chaos runs). Empty
	// means no faults. Each run builds a fresh injector from these plans,
	// so a configuration replays bit-for-bit.
	Faults []faultinject.Plan
}

// DefaultConfig returns the prototype configuration at the reproduction's
// reference scale.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:   core.MiB(8),
		CacheBytes:    128 << 10,
		WiredFrames:   128, // kernel + wired second-level page tables
		Dirty:         core.DirtySPUR,
		Ref:           core.RefMISS,
		TagCheckFlush: true,
		Timing:        timing.Default(),
		Seed:          1,
		TotalRefs:     20_000_000,
	}
}

// Machine is one assembled simulator instance.
type Machine struct {
	//spurlint:ignore statecomplete — the spec itself; a fanout merges only members whose configurations differ in Ref and MemoryBytes
	Cfg   Config
	Ctr   *counters.Set
	Cache *cache.Cache
	Table *pte.Table
	//spurlint:ignore statecomplete — stateless in-cache translation unit, rebuilt when the machine is wired
	X      *xlate.Unit
	Pool   *mem.Pool
	Pager  *vm.Pager
	Engine *core.Engine
	//spurlint:ignore statecomplete — fault-injection harness configuration; experiments never checkpoint under injection
	Inject *faultinject.Injector

	//spurlint:ignore statecomplete — Run's reference count for Result.Refs; the sampling engine drives the engine directly and never reads it
	refs int64
}

var _ workload.Env = (*Machine)(nil)

// New assembles a machine.
func New(cfg Config) *Machine {
	if cfg.MemoryBytes <= 0 || cfg.CacheBytes <= 0 {
		panic("machine: config missing sizes")
	}
	ctr := counters.New()
	c := cache.New(cfg.CacheBytes)
	tbl := pte.NewTable(addr.PTESegment)
	x := xlate.New(tbl, c, ctr, cfg.Timing)
	pool := mem.PoolForBytes(cfg.MemoryBytes, cfg.WiredFrames)
	pager := vm.NewPager(pool, ctr, cfg.Timing)
	e := core.NewEngine(c, x, pager, ctr, cfg.Timing, cfg.Dirty, cfg.Ref)
	e.TagCheckFlush = cfg.TagCheckFlush
	inj := faultinject.New(cfg.Faults...)
	if inj.Active() {
		// Only fault-plan runs pay for injection checks on the hot path;
		// a nil *faultinject.Injector is valid and inert, so the common
		// no-faults configuration leaves the engine and pager unwired.
		e.Inject = inj
		pager.Inject = inj
	}
	return &Machine{
		Cfg: cfg, Ctr: ctr, Cache: c, Table: tbl, X: x,
		Pool: pool, Pager: pager, Engine: e, Inject: inj,
	}
}

// AddRegion implements workload.Env.
func (m *Machine) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	return m.Pager.AddRegion(start, n, kind)
}

// ReleaseRegion implements workload.Env.
func (m *Machine) ReleaseRegion(r vm.Region) { m.Pager.ReleaseRegion(r) }

// Result summarizes one run.
type Result struct {
	// Events is the paper's event vocabulary for the run.
	Events core.Events
	// Pager is the raw pager statistics (Table 3.5 columns).
	Pager vm.Stats
	// Cycles is total machine time; ElapsedSeconds its wall-clock
	// equivalent at the prototype's 150 ns cycle.
	Cycles         uint64
	ElapsedSeconds float64
	// Refs is how many references actually ran.
	Refs int64
}

// Run drives up to n references from src through the engine and returns the
// run summary. Counters are not reset, so successive Runs accumulate; use a
// fresh Machine per experiment. Sources that report their runnable process
// count (like workload scripts) let the pager overlap page-in stalls with
// other processes' work.
func (m *Machine) Run(src trace.BatchSource, n int64) Result {
	m.run(src, make([]trace.Rec, trace.BatchSize), n, 0, func([]trace.Rec) bool { return true })
	return m.Snapshot()
}

// run is the machine's one reference loop, behind Run and RunHardened. The
// source fills buf and the engine consumes each batch with one concrete
// call; batching never changes the reference sequence, so every simulated
// outcome is what a per-reference pull would give. end runs after each
// batch and stops the run by returning false; batches never straddle a
// multiple of align.
func (m *Machine) run(src trace.BatchSource, buf []trace.Rec, n, align int64, end func([]trace.Rec) bool) {
	if r, ok := src.(interface{ Runnable() int }); ok {
		m.Pager.Runnable = r.Runnable
	}
	trace.Pump(src, buf, n, align, func(b []trace.Rec) bool {
		m.Engine.AccessBatch(b)
		m.refs += int64(len(b))
		return end(b)
	})
}

// Snapshot returns the machine's cumulative result.
func (m *Machine) Snapshot() Result {
	elapsed := m.Engine.ElapsedSeconds()
	return Result{
		Events:         core.EventsFrom(m.Ctr, m.Pager.Stats, elapsed),
		Pager:          m.Pager.Stats,
		Cycles:         m.Engine.TotalCycles(),
		ElapsedSeconds: elapsed,
		Refs:           m.refs,
	}
}

// RunSpec assembles a fresh machine for cfg, instantiates the workload spec
// on it, and runs the configured reference budget.
func RunSpec(cfg Config, spec workload.Spec) Result {
	m := New(cfg)
	script := workload.NewScript(m, cfg.Seed, spec)
	return m.Run(script, cfg.TotalRefs)
}
