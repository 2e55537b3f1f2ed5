package sample

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"reflect"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/journal"
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
	// JournalPath, when set, records a snapshot of every variant at each
	// interval start plus every measured interval's metrics, through
	// internal/journal's CRC-framed fsynced writer. A journal already at
	// the path is replayed: finished intervals are served from it and
	// simulation restarts from the last intact snapshot. A missing one is
	// created.
	JournalPath string
	// Kind, SpecKey and Version fill the journal header (and are validated
	// when an existing journal is replayed, so a journal cannot be replayed
	// against a different sampled experiment).
	Kind    string
	SpecKey string
	Version string
}

// journalRec is one journal frame of a sampled run (after the header): the
// plan record, a variant snapshot at an interval start, a variant's measured
// interval metrics, a variant's exact cold-start prefix metrics, or a
// variant's end-of-run cumulative totals.
type journalRec struct {
	Type     string           `json:"type"` // "plan" | "snap" | "metrics" | "prefix" | "final"
	Interval int              `json:"interval,omitempty"`
	Variant  int              `json:"variant,omitempty"`
	Plan     *planRec         `json:"plan,omitempty"`
	Snap     *MachineState    `json:"snap,omitempty"`
	Metrics  *IntervalMetrics `json:"metrics,omitempty"`
}

// planRec pins everything that shapes a sampled run, so a resumed journal
// is provably from the same experiment.
type planRec struct {
	Seed     uint64    `json:"seed"`
	Warmup   int64     `json:"warmup"`
	Plan     Plan      `json:"plan"`
	Variants []Variant `json:"variants"`
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
// them too: Capture omits regions and segments, so a member splitting off
// its leader must already hold them. The machines see identical call
// sequences, so their segment allocators answer identically; a divergence
// means variant construction differed and is a hard error.
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

func (e multiEnv) AllocSegment() addr.SegmentID {
	s := e.ms[0].AllocSegment()
	for _, m := range e.ms[1:] {
		if got := m.AllocSegment(); got != s {
			panic(fmt.Sprintf("sample: variant machines diverged on segment allocation (%d vs %d)", got, s))
		}
	}
	return s
}

func (e multiEnv) FreeSegment(s addr.SegmentID) {
	for _, m := range e.ms {
		m.FreeSegment(s)
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

// newFanout groups the machines under their leaders; with merge false,
// every variant starts split.
func newFanout(src trace.BatchSource, ms []*machine.Machine, merge bool) *fanout {
	f := &fanout{BatchSource: src, ms: ms, leader: make([]int, len(ms)), served: make([]int64, len(ms))}
	for vi, m := range ms {
		l := vi
		for li, c := range ms {
			if !merge || !sameButRefAndMemory(m.Cfg, c.Cfg) {
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
// whose horizon is exhausted, restoring the member's machine from its
// leader's projected state, and caps the batch at the smallest horizon left.
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
		// Restore ignores the snapshot's stream position.
		if err := Restore(f.ms[vi], f.capture(vi, 0)); err != nil {
			panic(fmt.Sprintf("sample: splitting variant %d off variant %d: %v", vi, l, err))
		}
		f.leader[vi] = vi
		f.step = append(f.step, f.ms[vi])
	}
	return f.BatchSource.NextBatch(buf[:n])
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
// its free list differs (see capture).
func (f *fanout) holder(vi int) *machine.Machine { return f.ms[f.leader[vi]] }

// capture is Capture of variant vi's state at stream position refs. A
// merged member's is its leader's with the free list cut to the member's
// frames. The pool reuses freed frames first and hands out fresh ones
// lowest first, and a positive horizon means the leader never ran out of
// frames below the member's total, so the frames cut are ones the leader
// never allocated.
func (f *fanout) capture(vi int, refs int64) *MachineState {
	s := Capture(f.holder(vi), refs)
	if f.leader[vi] != vi {
		total := f.ms[vi].Pool.Total()
		free := make([]addr.PFN, 0, len(s.PoolFree))
		for _, fr := range s.PoolFree {
			if int(fr) < total {
				free = append(free, fr)
			}
		}
		s.PoolFree = free
	}
	return s
}

// resumeState is what a replayed journal contributes: already-measured
// metrics, the interval to restart from, and the snapshots to restart with.
type resumeState struct {
	metrics [][]*IntervalMetrics // [interval][variant]
	prefix  []*IntervalMetrics   // [variant] exact prefix deltas, if journaled
	final   []*IntervalMetrics   // [variant] end-of-run totals, if journaled
	from    int                  // first interval to simulate
	snaps   []*MachineState      // all-variant snapshots at `from`, or nil
}

// replayJournal validates a replayed sampled-run journal against this run's
// plan record and extracts the resume state.
func replayJournal(entries [][]byte, want planRec, nv, nc int) (resumeState, error) {
	rs := resumeState{
		metrics: make([][]*IntervalMetrics, nc),
		prefix:  make([]*IntervalMetrics, nv),
		final:   make([]*IntervalMetrics, nv),
	}
	for i := range rs.metrics {
		rs.metrics[i] = make([]*IntervalMetrics, nv)
	}
	snaps := make([][]*MachineState, nc)
	for i := range snaps {
		snaps[i] = make([]*MachineState, nv)
	}
	sawPlan := false
	for i, b := range entries {
		var rec journalRec
		if err := json.Unmarshal(b, &rec); err != nil {
			return rs, fmt.Errorf("sample: journal record %d: %w", i, err)
		}
		switch rec.Type {
		case "plan":
			if rec.Plan == nil {
				return rs, fmt.Errorf("sample: journal record %d: plan record without plan", i)
			}
			got, err1 := json.Marshal(*rec.Plan)
			exp, err2 := json.Marshal(want)
			if err1 != nil || err2 != nil || !bytes.Equal(got, exp) {
				return rs, fmt.Errorf("sample: journal was written for a different sampled run (plan mismatch); refusing to mix results")
			}
			sawPlan = true
		case "snap", "metrics":
			if rec.Interval < 0 || rec.Interval >= nc || rec.Variant < 0 || rec.Variant >= nv {
				return rs, fmt.Errorf("sample: journal record %d: coordinates (%d,%d) outside the %d-interval × %d-variant design", i, rec.Interval, rec.Variant, nc, nv)
			}
			if rec.Type == "snap" {
				snaps[rec.Interval][rec.Variant] = rec.Snap
			} else {
				rs.metrics[rec.Interval][rec.Variant] = rec.Metrics
			}
		case "prefix", "final":
			if rec.Variant < 0 || rec.Variant >= nv {
				return rs, fmt.Errorf("sample: journal record %d: %s for variant %d outside the %d-variant design", i, rec.Type, rec.Variant, nv)
			}
			if rec.Type == "prefix" {
				rs.prefix[rec.Variant] = rec.Metrics
			} else {
				rs.final[rec.Variant] = rec.Metrics
			}
		default:
			return rs, fmt.Errorf("sample: journal record %d: unknown type %q", i, rec.Type)
		}
	}
	if !sawPlan {
		return rs, fmt.Errorf("sample: journal holds no plan record; refusing to resume")
	}
	// done is the longest prefix of fully measured intervals; the restart
	// point is the latest interval ≤ done where every variant has an intact
	// snapshot (re-measuring from there reproduces the tail bit for bit).
	done := 0
	for done < nc {
		full := true
		for v := 0; v < nv; v++ {
			if rs.metrics[done][v] == nil {
				full = false
				break
			}
		}
		if !full {
			break
		}
		done++
	}
	finalDone := true
	for _, f := range rs.final {
		if f == nil {
			finalDone = false
			break
		}
	}
	if done == nc && finalDone {
		rs.from = nc
	} else {
		// If only the end-of-run totals are missing, the last interval is
		// redone from its snapshot so the tail can be re-warmed.
		limit := done
		if limit == nc {
			limit = nc - 1
		}
		rs.from = 0
		for ci := limit; ci >= 0; ci-- {
			full := true
			for v := 0; v < nv; v++ {
				if snaps[ci][v] == nil {
					full = false
					break
				}
			}
			if full {
				rs.from = ci
				rs.snaps = snaps[ci]
				break
			}
		}
	}
	// A mid-run restart replays the prefix deltas from the journal rather
	// than re-simulating [0, Prefix); if any variant's prefix frame was
	// torn, the only faithful option is a cold restart.
	if want.Plan.Prefix > 0 {
		for _, p := range rs.prefix {
			if p == nil {
				rs.from = 0
				rs.snaps = nil
				break
			}
		}
	}
	return rs, nil
}

// Measure runs the measuring pass: one generated stream drives every
// variant machine through warmup plus each representative interval, and the
// per-interval metric deltas come back per variant. Between intervals the
// stream is warmed functionally (Engine.TouchBatch), so cache and VM state
// reach each warmup as the full run would leave them. Variants whose
// configurations differ only in reference-bit policy and memory size share
// one simulated machine until their page daemons could first run (see
// fanout); the results are those of simulating every variant on its own.
//
// With a JournalPath, every interval start appends one snapshot frame per
// variant and every measured interval one metrics frame per variant, fsynced
// through internal/journal. An existing journal's finished work is
// replayed, and simulation restarts from the last interval whose snapshots
// are all intact, with results byte-identical to an uninterrupted run.
func Measure(spec workload.Spec, streamSeed uint64, plan Plan, variants []Variant, opts MeasureOptions) ([]Measured, error) {
	out, _, err := measure(spec, streamSeed, plan, variants, opts)
	return out, err
}

// measure is Measure, also returning how many references each variant
// followed its leader for instead of being simulated.
func measure(spec workload.Spec, streamSeed uint64, plan Plan, variants []Variant, opts MeasureOptions) ([]Measured, []int64, error) {
	nv, nc := len(variants), len(plan.Chosen)
	if nv == 0 {
		return nil, nil, fmt.Errorf("sample: no variants to measure")
	}
	for _, v := range variants {
		if err := validateNoFaults(v.Cfg); err != nil {
			return nil, nil, err
		}
	}

	prec := planRec{Seed: streamSeed, Warmup: opts.Warmup, Plan: plan, Variants: variants}
	rs := resumeState{metrics: make([][]*IntervalMetrics, nc)}
	for i := range rs.metrics {
		rs.metrics[i] = make([]*IntervalMetrics, nv)
	}
	var jw *journal.Writer
	if opts.JournalPath != "" {
		kind := opts.Kind
		if kind == "" {
			kind = "sample"
		}
		hdr := journal.Header{Kind: kind, SpecKey: opts.SpecKey, Version: opts.Version}
		w, rep, err := journal.Open(opts.JournalPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if w, err = journal.Create(opts.JournalPath, hdr); err != nil {
				return nil, nil, err
			}
			rep = &journal.Replayed{Header: hdr}
		case err != nil:
			return nil, nil, err
		case rep.Header != hdr:
			_ = w.Close() // refusing the journal; nothing was written
			return nil, nil, fmt.Errorf("sample: journal %s was written for a different experiment: kind=%q spec=%.12s… version=%q, this run kind=%q spec=%.12s… version=%q",
				opts.JournalPath, rep.Header.Kind, rep.Header.SpecKey, rep.Header.Version, hdr.Kind, hdr.SpecKey, hdr.Version)
		}
		jw = w
		if len(rep.Entries) == 0 {
			// A new journal, or one whose plan record never reached disk:
			// this run starts fresh.
			err = appendRec(jw, journalRec{Type: "plan", Plan: &prec})
		} else {
			rs, err = replayJournal(rep.Entries, prec, nv, nc)
		}
		if err != nil {
			_ = jw.Close() // already failing; the journal holds only intact frames
			return nil, nil, err
		}
	}

	out := make([]Measured, nv)
	for vi := range out {
		out[vi] = Measured{Variant: variants[vi].Name, Intervals: make([]IntervalMetrics, nc)}
	}
	for ci := 0; ci < rs.from; ci++ {
		for vi := 0; vi < nv; vi++ {
			out[vi].Intervals[ci] = *rs.metrics[ci][vi]
		}
	}
	havePrefix := plan.Prefix == 0
	if !havePrefix && len(rs.prefix) == nv {
		havePrefix = true
		for _, p := range rs.prefix {
			if p == nil {
				havePrefix = false
				break
			}
		}
		if havePrefix {
			for vi := range out {
				out[vi].Prefix = *rs.prefix[vi]
			}
		}
	}
	haveFinal := false
	if len(rs.final) == nv {
		haveFinal = true
		for _, f := range rs.final {
			if f == nil {
				haveFinal = false
				break
			}
		}
		if haveFinal {
			for vi := range out {
				out[vi].Final = *rs.final[vi]
			}
		}
	}
	if rs.from == nc && havePrefix && haveFinal {
		// Everything was already measured; nothing to simulate.
		if jw != nil {
			return out, nil, jw.Close()
		}
		return out, nil, nil
	}

	ms := make([]*machine.Machine, nv)
	for i, v := range variants {
		cfg := v.Cfg
		cfg.Seed = streamSeed
		cfg.TotalRefs = plan.TotalRefs
		ms[i] = machine.New(cfg)
	}
	script := workload.NewScript(multiEnv{ms}, streamSeed, spec)
	for _, m := range ms {
		m.Pager.Runnable = script.Runnable
	}
	// A run restarted from snapshots starts with every variant split.
	f := newFanout(script, ms, rs.snaps == nil)

	// Generation modes: skip regenerates the stream with no machine effects
	// beyond the environment calls (used only up to a snapshot about to be
	// restored on top); warm advances VM state functionally through
	// Engine.Touch; sim is full simulation.
	const (
		genSkip = iota
		genWarm
		genSim
	)
	var pos int64
	buf := make([]trace.Rec, trace.BatchSize)
	gen := func(target int64, mode int) error {
		pos += trace.Pump(f, buf, target-pos, 0, func(b []trace.Rec) bool {
			if mode != genSkip {
				f.run(b, mode == genWarm)
			}
			return true
		})
		if pos < target {
			return fmt.Errorf("sample: workload stream ended at %d references (plan needs %d)", pos, target)
		}
		return nil
	}

	bases := make([]baseline, nv)
	if plan.Prefix > 0 && rs.snaps == nil {
		// Cold start: simulate [0, Prefix) exactly from reference zero, so
		// the startup transient is counted rather than extrapolated. On a
		// snapshot restart the prefix deltas come from the journal instead
		// (replayJournal forces a cold restart when they were torn).
		for vi := range ms {
			bases[vi] = readBaseline(f.holder(vi))
		}
		if err := gen(plan.Prefix, genSim); err != nil {
			return nil, nil, err
		}
		for vi := range ms {
			after := readBaseline(f.holder(vi))
			im := IntervalMetrics{
				Shadow: counters.Diff(after.shadow, bases[vi].shadow),
				Pager:  statsDiff(after.pager, bases[vi].pager),
				Cycles: after.cycles - bases[vi].cycles,
				Refs:   plan.Prefix,
			}
			out[vi].Prefix = im
			if jw != nil {
				if err := appendRec(jw, journalRec{Type: "prefix", Variant: vi, Metrics: &im}); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	restored := -1
	if rs.snaps != nil {
		start := int64(plan.Chosen[rs.from].Index) * plan.IntervalLen
		if err := gen(start, genSkip); err != nil {
			return nil, nil, err
		}
		for vi, m := range ms {
			if rs.snaps[vi].Refs != start {
				return nil, nil, fmt.Errorf("sample: snapshot for variant %d is at ref %d, interval starts at %d", vi, rs.snaps[vi].Refs, start)
			}
			if err := Restore(m, rs.snaps[vi]); err != nil {
				return nil, nil, err
			}
		}
		restored = rs.from
	}

	for ci := rs.from; ci < nc; ci++ {
		start := int64(plan.Chosen[ci].Index) * plan.IntervalLen
		if ci != restored {
			warmStart := start - opts.Warmup
			if warmStart < pos {
				warmStart = pos
			}
			if err := gen(warmStart, genWarm); err != nil {
				return nil, nil, err
			}
			if err := gen(start, genSim); err != nil {
				return nil, nil, err
			}
			if jw != nil {
				for vi := range ms {
					if err := appendRec(jw, journalRec{Type: "snap", Interval: ci, Variant: vi, Snap: f.capture(vi, start)}); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		for vi := range ms {
			bases[vi] = readBaseline(f.holder(vi))
		}
		if err := gen(start+plan.IntervalLen, genSim); err != nil {
			return nil, nil, err
		}
		for vi := range ms {
			after := readBaseline(f.holder(vi))
			im := IntervalMetrics{
				Shadow: counters.Diff(after.shadow, bases[vi].shadow),
				Pager:  statsDiff(after.pager, bases[vi].pager),
				Cycles: after.cycles - bases[vi].cycles,
				Refs:   plan.IntervalLen,
			}
			out[vi].Intervals[ci] = im
			if jw != nil {
				if err := appendRec(jw, journalRec{Type: "metrics", Interval: ci, Variant: vi, Metrics: &im}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// Warm the tail past the last representative so Final's cumulative
	// VM-event counts cover the entire timeline [0, TotalRefs).
	if err := gen(plan.TotalRefs, genWarm); err != nil {
		return nil, nil, err
	}
	for vi := range ms {
		t := readBaseline(f.holder(vi))
		fm := IntervalMetrics{Shadow: t.shadow, Pager: t.pager, Cycles: t.cycles, Refs: plan.TotalRefs}
		out[vi].Final = fm
		if jw != nil {
			if err := appendRec(jw, journalRec{Type: "final", Variant: vi, Metrics: &fm}); err != nil {
				return nil, nil, err
			}
		}
	}
	if jw != nil {
		return out, f.served, jw.Close()
	}
	return out, f.served, nil
}

func appendRec(w *journal.Writer, rec journalRec) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sample: encoding journal record: %w", err)
	}
	return w.Append(b)
}
