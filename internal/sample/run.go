package sample

import (
	"fmt"
	"reflect"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Variant is one machine configuration measured over the shared stream. The
// runner overrides Cfg.Seed and Cfg.TotalRefs with the group's stream seed
// and the plan's length: a variant differs in policy, memory size, cache
// geometry — anything except the stream itself.
type Variant struct {
	Name string         `json:"name"`
	Cfg  machine.Config `json:"cfg"`
}

// IntervalMetrics is the simulated delta over one representative interval:
// counter shadow, pager statistics and total machine cycles, all as
// (end − start) differences, plus the references simulated.
type IntervalMetrics struct {
	Shadow [counters.NumEvents]uint64 `json:"shadow"`
	Pager  vm.Stats                   `json:"pager"`
	Cycles uint64                     `json:"cycles"`
	Refs   int64                      `json:"refs"`
}

// Measured is one variant's per-interval metric deltas, indexed like
// Plan.Chosen, plus the exact delta over the plan's cold-start prefix
// (zero-valued when the plan has no prefix) and the machine's cumulative
// totals at the end of the whole warmed timeline. Because the stream is
// functionally warmed between representative intervals, Final's VM-event
// counts (faults, page-ins, teardown flushes) cover every reference of the
// run — they are whole-run counts, not extrapolations.
type Measured struct {
	Variant   string            `json:"variant"`
	Prefix    IntervalMetrics   `json:"prefix"`
	Final     IntervalMetrics   `json:"final"`
	Intervals []IntervalMetrics `json:"intervals"`
}

// MeasureOptions configures the measuring pass.
type MeasureOptions struct {
	// Warmup is how many references to simulate before each representative
	// interval to refresh cache and resident-set state.
	Warmup int64
}

// statsDiff returns a − b field by field.
func statsDiff(a, b vm.Stats) vm.Stats {
	return vm.Stats{
		PageIns:               a.PageIns - b.PageIns,
		PageOuts:              a.PageOuts - b.PageOuts,
		Reclaims:              a.Reclaims - b.Reclaims,
		ZeroFills:             a.ZeroFills - b.ZeroFills,
		Scans:                 a.Scans - b.Scans,
		WritablePageOuts:      a.WritablePageOuts - b.WritablePageOuts,
		CleanWritablePageOuts: a.CleanWritablePageOuts - b.CleanWritablePageOuts,
		ZFODForcedWrites:      a.ZFODForcedWrites - b.ZFODForcedWrites,
		IORetries:             a.IORetries - b.IORetries,
	}
}

// baseline is the pre-interval reading the deltas subtract.
type baseline struct {
	shadow [counters.NumEvents]uint64
	pager  vm.Stats
	cycles uint64
}

func readBaseline(m *machine.Machine) baseline {
	return baseline{shadow: m.Ctr.Snapshot(), pager: m.Pager.Stats, cycles: m.Engine.TotalCycles()}
}

// multiEnv fans one workload's environment calls out to every variant
// machine, so a single generated stream drives them all. Merged members get
// them too: copyMachine omits the region list, so a member splitting off
// its leader must already hold it.
type multiEnv struct{ ms []*machine.Machine }

func (e multiEnv) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	r := e.ms[0].AddRegion(start, n, kind)
	for _, m := range e.ms[1:] {
		m.AddRegion(start, n, kind)
	}
	return r
}

func (e multiEnv) ReleaseRegion(r vm.Region) {
	for _, m := range e.ms {
		m.ReleaseRegion(r)
	}
}

var _ workload.Env = multiEnv{}

// fanout is the trace.BatchSource Measure pumps and the set of variant
// machines it simulates. Variants whose configurations differ only in Ref
// and MemoryBytes run as one leader, the group's first largest-memory
// member, until a member's horizon runs out and it splits off (see the
// package comment); every state read of a merged member is its leader's.
type fanout struct {
	trace.BatchSource // the workload script; Pump pulls through NextBatch
	ms                []*machine.Machine
	// leader[vi] is the variant whose machine holds vi's state: vi itself
	// for a leader and once vi has split off.
	leader []int
	// step is the machines the loop simulates: leaders and split members.
	step []*machine.Machine
	// served counts the references each variant followed its leader for.
	served []int64
}

// newFanout groups the machines under their leaders.
func newFanout(src trace.BatchSource, ms []*machine.Machine) *fanout {
	f := &fanout{BatchSource: src, ms: ms, leader: make([]int, len(ms)), served: make([]int64, len(ms))}
	for vi, m := range ms {
		l := vi
		for li, c := range ms {
			if !sameButRefAndMemory(m.Cfg, c.Cfg) {
				continue
			}
			if t := c.Pool.Total(); t > ms[l].Pool.Total() || t == ms[l].Pool.Total() && li < l {
				l = li
			}
		}
		f.leader[vi] = l
		if l == vi {
			f.step = append(f.step, m)
		}
	}
	return f
}

// sameButRefAndMemory reports whether two configurations differ at most in
// reference-bit policy and memory size.
func sameButRefAndMemory(a, b machine.Config) bool {
	a.Ref, a.MemoryBytes = b.Ref, b.MemoryBytes
	return reflect.DeepEqual(a, b)
}

// horizon is how many more references merged member vi can follow its
// leader. A reference allocates at most one frame, and a daemon runs only
// when a fault finds fewer than LowWater frames free, so within that many
// references neither vi's daemon (on the leader's free list less the frames
// vi lacks) nor the leader's own can run.
func (f *fanout) horizon(vi int) int {
	l, m := f.holder(vi).Pool, f.ms[vi].Pool
	return min(l.Free()-(l.Total()-m.Total())-m.LowWater(), l.Free()-l.LowWater())
}

// NextBatch implements trace.BatchSource: it splits off every merged member
// whose horizon is exhausted, copying its leader's state into the member's
// machine, and caps the batch at the smallest horizon left.
func (f *fanout) NextBatch(buf []trace.Rec) int {
	n := len(buf)
	for vi, l := range f.leader {
		if l == vi {
			continue
		}
		if h := f.horizon(vi); h > 0 {
			n = min(n, h)
			continue
		}
		f.split(vi)
	}
	return f.BatchSource.NextBatch(buf[:n])
}

// split copies merged member vi's state from its leader and steps it on its
// own from then on.
func (f *fanout) split(vi int) {
	copyMachine(f.ms[vi], f.holder(vi))
	f.leader[vi] = vi
	f.step = append(f.step, f.ms[vi])
}

// run simulates one batch on every stepped machine (functionally when
// warm) and credits the batch to the merged members.
func (f *fanout) run(b []trace.Rec, warm bool) {
	for _, m := range f.step {
		if warm {
			m.Engine.TouchBatch(b)
		} else {
			m.Engine.AccessBatch(b)
		}
	}
	for vi, l := range f.leader {
		if l != vi {
			f.served[vi] += int64(len(b))
		}
	}
}

// holder returns the machine holding variant vi's state. A merged member
// shares its leader's counters, pager statistics and cycles exactly; only
// its free list differs (see copyMachine).
func (f *fanout) holder(vi int) *machine.Machine { return f.ms[f.leader[vi]] }

// copyMachine makes m the machine l simulates: the cache lines, PTEs, pages
// and clock ring, counters and engine totals, each copied into m's own
// structures, and l's free list cut to m's frames. The pool reuses freed
// frames first and hands out fresh ones lowest first, and a positive
// horizon means the leader never ran out of frames below the member's
// total, so the frames cut are ones the leader never allocated. What it
// omits is the region list, which the workload stream builds through the
// machine's environment calls, and the generator's own state, segment
// numbers included: generation is a pure function of (spec, seed),
// and a machine driven by the same stream (a fanout member through
// multiEnv) already holds them. The pages the regions hold are copied.
// Driving m and l with the same references afterwards produces identical
// counters, cycles and statistics.
func copyMachine(m, l *machine.Machine) {
	m.Cache.CopyFrom(l.Cache)
	m.Table.CopyFrom(l.Table)
	m.Pool.CopyFreeFrom(l.Pool)
	m.Pager.CopyFrom(l.Pager)
	m.Ctr.CopyFrom(l.Ctr)
	m.Engine.Cycles = l.Engine.Cycles
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

// Measure runs the measuring pass: one generated stream drives every
// variant machine through warmup plus each representative interval, and the
// per-interval metric deltas come back per variant. Between intervals the
// stream is warmed functionally (Engine.TouchBatch), so cache and VM state
// reach each warmup as the full run would leave them. Variants whose
// configurations differ only in reference-bit policy and memory size share
// one simulated machine until their page daemons could first run (see
// fanout); the results are those of simulating every variant on its own.
// Measure is a pure function of its arguments and does no I/O.
func Measure(spec workload.Spec, streamSeed uint64, plan Plan, variants []Variant, opts MeasureOptions) ([]Measured, error) {
	out, _, err := measure(spec, streamSeed, plan, variants, opts)
	return out, err
}

// measure is Measure, also returning how many references each variant
// followed its leader for instead of being simulated.
func measure(spec workload.Spec, streamSeed uint64, plan Plan, variants []Variant, opts MeasureOptions) ([]Measured, []int64, error) {
	if len(variants) == 0 {
		return nil, nil, fmt.Errorf("sample: no variants to measure")
	}
	for _, v := range variants {
		if err := validateNoFaults(v.Cfg); err != nil {
			return nil, nil, err
		}
	}

	ms := make([]*machine.Machine, len(variants))
	out := make([]Measured, len(variants))
	for vi, v := range variants {
		cfg := v.Cfg
		cfg.Seed = streamSeed
		cfg.TotalRefs = plan.TotalRefs
		ms[vi] = machine.New(cfg)
		out[vi] = Measured{Variant: v.Name, Intervals: make([]IntervalMetrics, len(plan.Chosen))}
	}
	script := workload.NewScript(multiEnv{ms}, streamSeed, spec)
	for _, m := range ms {
		m.Pager.Runnable = script.Runnable
	}
	f := newFanout(script, ms)

	// gen advances the stream to target, warming the machines functionally
	// (Engine.TouchBatch) or simulating them in full.
	var pos int64
	buf := make([]trace.Rec, trace.BatchSize)
	gen := func(target int64, warm bool) error {
		pos += trace.Pump(f, buf, target-pos, 0, func(b []trace.Rec) bool {
			f.run(b, warm)
			return true
		})
		if pos < target {
			return fmt.Errorf("sample: workload stream ended at %d references (plan needs %d)", pos, target)
		}
		return nil
	}
	// span simulates the stream in full up to start and then over
	// [start, start+n), handing each variant's metric deltas over the
	// latter to each.
	bases := make([]baseline, len(ms))
	span := func(start, n int64, each func(vi int, im IntervalMetrics)) error {
		if err := gen(start, false); err != nil {
			return err
		}
		for vi := range ms {
			bases[vi] = readBaseline(f.holder(vi))
		}
		if err := gen(start+n, false); err != nil {
			return err
		}
		for vi := range ms {
			after := readBaseline(f.holder(vi))
			each(vi, IntervalMetrics{
				Shadow: counters.Diff(after.shadow, bases[vi].shadow),
				Pager:  statsDiff(after.pager, bases[vi].pager),
				Cycles: after.cycles - bases[vi].cycles,
				Refs:   n,
			})
		}
		return nil
	}

	// Cold start: simulate [0, Prefix) exactly from reference zero, so the
	// startup transient is counted rather than extrapolated.
	if plan.Prefix > 0 {
		if err := span(0, plan.Prefix, func(vi int, im IntervalMetrics) { out[vi].Prefix = im }); err != nil {
			return nil, nil, err
		}
	}
	for ci, c := range plan.Chosen {
		start := int64(c.Index) * plan.IntervalLen
		if err := gen(max(start-opts.Warmup, pos), true); err != nil {
			return nil, nil, err
		}
		if err := span(start, plan.IntervalLen, func(vi int, im IntervalMetrics) { out[vi].Intervals[ci] = im }); err != nil {
			return nil, nil, err
		}
	}
	// Warm the tail past the last representative so Final's cumulative
	// VM-event counts cover the entire timeline [0, TotalRefs).
	if err := gen(plan.TotalRefs, true); err != nil {
		return nil, nil, err
	}
	for vi := range ms {
		t := readBaseline(f.holder(vi))
		out[vi].Final = IntervalMetrics{Shadow: t.shadow, Pager: t.pager, Cycles: t.cycles, Refs: plan.TotalRefs}
	}
	return out, f.served, nil
}
