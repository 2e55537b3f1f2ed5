package sample

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testConfig(refs int64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.MemoryBytes = core.MiB(4) // small memory: real paging traffic
	cfg.TotalRefs = refs
	return cfg
}

// drive generates the stream on script and simulates it on m up to target.
func drive(t *testing.T, m *machine.Machine, script *workload.Script, pos *int64, target int64, sim bool) {
	t.Helper()
	*pos += trace.Pump(script, make([]trace.Rec, 512), target-*pos, 0, func(b []trace.Rec) bool {
		if sim {
			m.Engine.AccessBatch(b)
		}
		return true
	})
	if *pos < target {
		t.Fatalf("stream ended at %d refs (wanted %d)", *pos, target)
	}
}

// machineDiff names the first part of the simulated state where machines a
// and b differ, or returns "": the state copyMachine copies.
func machineDiff(a, b *machine.Machine) string {
	switch {
	case !reflect.DeepEqual(a.Cache, b.Cache):
		return "cache"
	case !reflect.DeepEqual(a.Table, b.Table):
		return "PTEs"
	case !a.Pager.SamePages(b.Pager):
		return "pages"
	case a.Pager.Stats != b.Pager.Stats || a.Pager.Cycles != b.Pager.Cycles:
		return "pager statistics"
	case !reflect.DeepEqual(a.Pool, b.Pool):
		return "free list"
	case a.Ctr.Mode() != b.Ctr.Mode() || a.Ctr.HardwareSnapshot() != b.Ctr.HardwareSnapshot() || a.Ctr.Snapshot() != b.Ctr.Snapshot():
		return "counters"
	case a.Engine.Cycles != b.Engine.Cycles || a.Engine.FaultsByKind != b.Engine.FaultsByKind:
		return "engine totals"
	}
	return ""
}

func TestProfileDeterministicAndNormalized(t *testing.T) {
	spec := workload.SLCSpec()
	p1 := BuildProfile(spec, 7, 100_000, 10_000)
	p2 := BuildProfile(spec, 7, 100_000, 10_000)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("profiles of the same (spec, seed) differ")
	}
	if len(p1.Sigs) != 10 {
		t.Fatalf("got %d signatures, want 10", len(p1.Sigs))
	}
	// Every reference lands in exactly one page bucket and one op bucket,
	// so the touch-frequency dims of each normalized signature sum to 2;
	// the region-lifecycle dims are max-normalized into [0, 1].
	for i, sig := range p1.Sigs {
		var sum float64
		for _, v := range sig[:envAddDim] {
			sum += v
		}
		if math.Abs(sum-2) > 1e-9 {
			t.Fatalf("signature %d touch dims sum to %g, want 2", i, sum)
		}
		for d := envAddDim; d < SigDims; d++ {
			if sig[d] < 0 || sig[d] > 1 {
				t.Fatalf("signature %d lifecycle dim %d = %g, want [0,1]", i, d, sig[d])
			}
		}
	}
	// A different seed is a different stream.
	if reflect.DeepEqual(p1, BuildProfile(spec, 8, 100_000, 10_000)) {
		t.Fatal("profiles of different seeds are identical")
	}
}

func TestBuildPlanShape(t *testing.T) {
	p := BuildProfile(workload.SLCSpec(), 3, 200_000, 10_000)
	plan := BuildPlan(p, 5, 3, 0)
	if !reflect.DeepEqual(plan, BuildPlan(p, 5, 3, 0)) {
		t.Fatal("plans of the same (profile, k, seed) differ")
	}
	if len(plan.Chosen) == 0 || len(plan.Chosen) > 5 {
		t.Fatalf("got %d representatives, want 1..5", len(plan.Chosen))
	}
	var wsum float64
	last := -1
	for _, c := range plan.Chosen {
		if c.Index <= last {
			t.Fatalf("chosen indices not strictly ascending: %v", plan.Chosen)
		}
		if c.Index < 0 || c.Index >= len(p.Sigs) {
			t.Fatalf("chosen index %d out of range", c.Index)
		}
		last = c.Index
		wsum += c.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", wsum)
	}
	if got := plan.SimulatedRefs(5_000); got != int64(len(plan.Chosen))*15_000 {
		t.Fatalf("SimulatedRefs = %d", got)
	}

	// With a prefix, the leading intervals are excluded from clustering:
	// the prefix rounds up to whole intervals, every representative starts
	// at or after it, and the weights cover the post-prefix stream.
	pre := BuildPlan(p, 5, 3, 25_000)
	if pre.Prefix != 30_000 {
		t.Fatalf("Prefix = %d, want 30000 (25000 rounded up to intervals)", pre.Prefix)
	}
	wsum = 0
	for _, c := range pre.Chosen {
		if int64(c.Index)*pre.IntervalLen < pre.Prefix {
			t.Fatalf("representative %d starts inside the prefix", c.Index)
		}
		wsum += c.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("prefixed weights sum to %g, want 1", wsum)
	}
	if got := pre.SimulatedRefs(5_000); got != 30_000+int64(len(pre.Chosen))*15_000 {
		t.Fatalf("prefixed SimulatedRefs = %d", got)
	}
	// A prefix covering everything still leaves one interval to cluster.
	all := BuildPlan(p, 5, 3, 10*200_000)
	if all.Prefix != 190_000 || len(all.Chosen) == 0 {
		t.Fatalf("oversized prefix: Prefix=%d Chosen=%v", all.Prefix, all.Chosen)
	}
}

// TestSnapshotRoundTrip: across seeds and prefix lengths, copy a warmed
// machine onto a fresh one (after regenerating the stream prefix, which
// registers the same regions and segments), and check the two machines stay
// bit-for-bit identical over the rest of the stream.
func TestSnapshotRoundTrip(t *testing.T) {
	spec := workload.SLCSpec()
	for _, tc := range []struct {
		seed   uint64
		prefix int64
	}{
		{1, 10_000},
		{2, 50_000},
		{3, 77_777},
		{4, 120_001},
	} {
		cfg := testConfig(200_000)
		cfg.Seed = tc.seed

		// Original: simulate the prefix, copy, keep going.
		m1 := machine.New(cfg)
		s1 := workload.NewScript(m1, tc.seed, spec)
		m1.Pager.Runnable = s1.Runnable
		var pos1 int64
		drive(t, m1, s1, &pos1, tc.prefix, true)

		// Replica: regenerate the prefix without simulating it, then copy
		// the original's state onto it.
		m2 := machine.New(cfg)
		s2 := workload.NewScript(m2, tc.seed, spec)
		m2.Pager.Runnable = s2.Runnable
		var pos2 int64
		drive(t, m2, s2, &pos2, tc.prefix, false)
		copyMachine(m2, m1)
		if d := machineDiff(m1, m2); d != "" {
			t.Fatalf("seed %d prefix %d: the copy differs in its %s", tc.seed, tc.prefix, d)
		}

		// The copy must be indistinguishable from the original over the
		// rest of the stream.
		drive(t, m1, s1, &pos1, 200_000, true)
		drive(t, m2, s2, &pos2, 200_000, true)
		if d := machineDiff(m1, m2); d != "" {
			t.Fatalf("seed %d prefix %d: machines diverged after the copy, in their %s", tc.seed, tc.prefix, d)
		}
	}
}

// TestMeasureTrivialPlanIsExact: a one-interval plan spanning the whole
// stream is a full simulation, and must match machine.RunSpec exactly.
func TestMeasureTrivialPlanIsExact(t *testing.T) {
	const refs = 150_000
	spec := workload.SLCSpec()
	cfg := testConfig(refs)
	cfg.Seed = 9

	plan := Plan{TotalRefs: refs, IntervalLen: refs, K: 1, Chosen: []Chosen{{Index: 0, Weight: 1}}}
	ms, err := Measure(spec, 9, plan, []Variant{{Name: "v", Cfg: cfg}}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	im := ms[0].Intervals[0]

	res := machine.RunSpec(cfg, spec)
	ev := core.EventsFromShadow(im.Shadow, im.Pager, res.ElapsedSeconds)
	if ev != res.Events {
		t.Fatalf("measured events differ from RunSpec:\n%+v\nvs\n%+v", ev, res.Events)
	}
	if im.Cycles != res.Cycles {
		t.Fatalf("measured cycles %d != RunSpec cycles %d", im.Cycles, res.Cycles)
	}

	// The estimator on the trivial plan reproduces the exact totals with
	// zero-width error bars.
	est := plan.Estimate(ms[0], cfg.Timing, 0)
	if m, _ := est.Metric("page_ins"); uint64(math.Round(m.Total)) != res.Events.PageIns || m.CI95 != 0 {
		t.Fatalf("page_ins estimate %+v vs exact %d", m, res.Events.PageIns)
	}
	if m, _ := est.Metric("misses"); uint64(math.Round(m.Total)) != res.Events.Misses {
		t.Fatalf("misses estimate %+v vs exact %d", m, res.Events.Misses)
	}
}

func sampledFixture() (workload.Spec, uint64, Plan, []Variant, MeasureOptions) {
	const refs = 200_000
	spec := workload.SLCSpec()
	seed := uint64(21)
	profile := BuildProfile(spec, seed, refs, 10_000)
	plan := BuildPlan(profile, 6, seed, 20_000)
	cfgA := testConfig(refs)
	cfgB := testConfig(refs)
	cfgB.Ref = core.RefTRUE
	variants := []Variant{{Name: "miss", Cfg: cfgA}, {Name: "ref", Cfg: cfgB}}
	return spec, seed, plan, variants, MeasureOptions{Warmup: 5_000}
}

func TestMeasureDeterministic(t *testing.T) {
	spec, seed, plan, variants, opts := sampledFixture()
	a, err := Measure(spec, seed, plan, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(spec, seed, plan, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sampled runs differ")
	}
	for vi := range a {
		for ci, im := range a[vi].Intervals {
			if im.Refs != plan.IntervalLen {
				t.Fatalf("variant %d interval %d simulated %d refs, want %d", vi, ci, im.Refs, plan.IntervalLen)
			}
		}
	}
}

func TestMeasureRejectsFaultPlans(t *testing.T) {
	spec, seed, plan, variants, opts := sampledFixture()
	variants[0].Cfg.Faults = []faultinject.Plan{{}}
	if _, err := Measure(spec, seed, plan, variants, opts); err == nil {
		t.Fatal("Measure accepted a fault-injection config")
	}
}

// TestEstimatesRoundTripJSON checks the encoding a stored sampled sweep
// keeps for each group: its estimates must come back from JSON unchanged,
// or a rerun over the store would print other numbers than the run that
// filled it. The root package's stored-sweep tests check the same end to
// end; this one fails in the package that defines Estimate, when a field is
// added that JSON cannot carry.
func TestEstimatesRoundTripJSON(t *testing.T) {
	spec, seed, plan, variants, opts := sampledFixture()
	ms, err := Measure(spec, seed, plan, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]Estimate, len(ms))
	for vi := range ms {
		ests[vi] = plan.Estimate(ms[vi], variants[vi].Cfg.Timing, opts.Warmup)
	}
	b, err := json.Marshal(ests)
	if err != nil {
		t.Fatal(err)
	}
	var back []Estimate
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ests) {
		t.Fatalf("estimates changed through JSON:\n%+v\nvs\n%+v", back, ests)
	}
}

// mergeVariants measures all three reference-bit policies at two memory
// sizes on sampledFixture's stream: at 2.5 MB the page daemon first runs
// mid-stream, so those variants split off their leader (8 MB/MISS); at
// 8 MB it never runs, so 8 MB/REF and 8 MB/NOREF follow the leader
// throughout.
func mergeVariants(refs int64) []Variant {
	var vs []Variant
	for _, mem := range []int{5 << 19, core.MiB(8)} {
		for _, pol := range core.RefPolicies {
			cfg := testConfig(refs)
			cfg.MemoryBytes, cfg.Ref = mem, pol
			vs = append(vs, Variant{Name: fmt.Sprintf("%dKB/%s", mem>>10, pol), Cfg: cfg})
		}
	}
	return vs
}

// TestMeasureMergedMatchesSolo checks the leader/split driver against an
// oracle that cannot merge: each variant measured alongside siblings must
// come out exactly as measured alone, under a sampled plan and under the
// whole-stream plan ValidateSampling uses. The served counts prove merging
// happened, so a driver that simulates every variant would fail here.
func TestMeasureMergedMatchesSolo(t *testing.T) {
	spec, seed, plan, _, opts := sampledFixture()
	variants := mergeVariants(plan.TotalRefs)
	whole := Plan{TotalRefs: plan.TotalRefs, IntervalLen: plan.TotalRefs, K: 1, Chosen: []Chosen{{Index: 0, Weight: 1}}}
	for _, tc := range []struct {
		name string
		plan Plan
		opts MeasureOptions
	}{
		{"sampled", plan, opts},
		{"whole-stream", whole, MeasureOptions{}},
	} {
		got, served, err := measure(spec, seed, tc.plan, variants, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for vi, v := range variants {
			solo, err := Measure(spec, seed, tc.plan, []Variant{v}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[vi], solo[0]) {
				t.Errorf("%s: %s measured with its siblings differs from %s measured alone", tc.name, v.Name, v.Name)
			}
			daemon := got[vi].Final.Pager.Scans > 0
			switch small := v.Cfg.MemoryBytes < core.MiB(8); {
			case vi == 3: // 8 MB/MISS, the leader
				if served[vi] != 0 || daemon {
					t.Errorf("%s: leader %s served %d refs by another machine, daemon ran %v", tc.name, v.Name, served[vi], daemon)
				}
			case small:
				if served[vi] <= 0 || served[vi] >= tc.plan.TotalRefs || !daemon {
					t.Errorf("%s: %s followed its leader for %d of %d refs (daemon ran %v), want a split mid-stream",
						tc.name, v.Name, served[vi], tc.plan.TotalRefs, daemon)
				}
			default:
				if served[vi] != tc.plan.TotalRefs || daemon {
					t.Errorf("%s: %s followed its leader for %d of %d refs (daemon ran %v), want all of them",
						tc.name, v.Name, served[vi], tc.plan.TotalRefs, daemon)
				}
			}
		}
	}
}

// TestMeasureMergedSplitsWithSoloState checks the state a merged member
// splits off with. Driving mergeVariants' machines through one fanout over
// the whole stream, every member that splits off its leader must at that
// moment hold exactly the state of a machine that simulated it alone, and
// at the end every variant's state — copied from its leader for the
// members that never split — must be its solo machine's.
func TestMeasureMergedSplitsWithSoloState(t *testing.T) {
	spec, seed, plan, _, _ := sampledFixture()
	variants := mergeVariants(plan.TotalRefs)
	nv := len(variants)
	ms, solo := make([]*machine.Machine, nv), make([]*machine.Machine, nv)
	soloScripts, soloPos := make([]*workload.Script, nv), make([]int64, nv)
	for vi, v := range variants {
		cfg := v.Cfg
		cfg.Seed = seed
		ms[vi], solo[vi] = machine.New(cfg), machine.New(cfg)
		soloScripts[vi] = workload.NewScript(solo[vi], seed, spec)
		solo[vi].Pager.Runnable = soloScripts[vi].Runnable
	}
	script := workload.NewScript(multiEnv{ms}, seed, spec)
	for _, m := range ms {
		m.Pager.Runnable = script.Runnable
	}
	f := newFanout(script, ms)
	merged := append([]int(nil), f.leader...)

	var pos int64
	splits := 0
	trace.Pump(f, make([]trace.Rec, trace.BatchSize), plan.TotalRefs, 0, func(b []trace.Rec) bool {
		for vi := range variants {
			if merged[vi] == vi || f.leader[vi] != vi {
				continue
			}
			// vi split off before this batch, at stream position pos.
			merged[vi] = vi
			splits++
			drive(t, solo[vi], soloScripts[vi], &soloPos[vi], pos, true)
			if d := machineDiff(ms[vi], solo[vi]); d != "" {
				t.Errorf("%s split off at ref %d with %s unequal to its solo machine's", variants[vi].Name, pos, d)
			}
		}
		f.run(b, false)
		pos += int64(len(b))
		return true
	})
	if pos != plan.TotalRefs {
		t.Fatalf("stream ended at %d refs, want %d", pos, plan.TotalRefs)
	}
	// The three 2.5 MB variants split; 8 MB/REF and 8 MB/NOREF never do.
	if splits != 3 {
		t.Errorf("%d variants split off, want 3", splits)
	}
	for vi, v := range variants {
		drive(t, solo[vi], soloScripts[vi], &soloPos[vi], pos, true)
		if f.leader[vi] != vi {
			f.split(vi)
		}
		if d := machineDiff(ms[vi], solo[vi]); d != "" {
			t.Errorf("%s: final %s unequal to its solo machine's", v.Name, d)
		}
	}
}

// TestMeasureGroupDependsOnlyOnItsInputs: a stored sweep that resumes
// measures only the groups its store lacks, in whatever order they come,
// so a group's measurements must depend on its own inputs alone. Measuring
// a foreign group — another stream seed, warmup or variant set — in between
// leaves a group's measurements unchanged, and each foreign group measures
// differently, so a store must never serve one for the other.
func TestMeasureGroupDependsOnlyOnItsInputs(t *testing.T) {
	spec, seed, plan, variants, opts := sampledFixture()
	want, err := Measure(spec, seed, plan, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	longer := opts
	longer.Warmup *= 2
	smaller := append([]Variant(nil), variants...)
	smaller[1].Cfg.MemoryBytes = 5 << 19 // 2.5 MB: the page daemon runs
	for name, foreign := range map[string]func() ([]Measured, error){
		"seed":     func() ([]Measured, error) { return Measure(spec, seed+1, plan, variants, opts) },
		"warmup":   func() ([]Measured, error) { return Measure(spec, seed, plan, variants, longer) },
		"variants": func() ([]Measured, error) { return Measure(spec, seed, plan, smaller, opts) },
	} {
		other, err := foreign()
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(other, want) {
			t.Errorf("a group with another %s measured the same", name)
		}
		got, err := Measure(spec, seed, plan, variants, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("measuring a group with another %s in between changed this group's measurements", name)
		}
	}
}

func TestEstimateWeighting(t *testing.T) {
	// Two intervals, weights 0.75/0.25, one metric checked by hand.
	plan := Plan{TotalRefs: 1000, IntervalLen: 100, K: 2,
		Chosen: []Chosen{{Index: 0, Weight: 0.75}, {Index: 5, Weight: 0.25}}}
	var a, b IntervalMetrics
	a.Refs, b.Refs = 100, 100
	a.Pager.PageIns, b.Pager.PageIns = 10, 30
	m := Measured{Variant: "v", Intervals: []IntervalMetrics{a, b}}
	est := plan.Estimate(m, machine.DefaultConfig().Timing, 0)
	pi, ok := est.Metric("page_ins")
	if !ok {
		t.Fatal("no page_ins estimate")
	}
	// Weighted rate = 0.75*0.1 + 0.25*0.3 = 0.15; total = 150.
	if math.Abs(pi.Rate-0.15) > 1e-12 || math.Abs(pi.Total-150) > 1e-9 {
		t.Fatalf("page_ins estimate %+v, want rate 0.15 total 150", pi)
	}
	if pi.CI95 <= 0 {
		t.Fatal("two distinct intervals must yield a positive CI95")
	}
}

// TestTouchBatchMirrorsAccessBatch drives one stream through two machines,
// one simulating it (AccessBatch) and one warming functionally
// (TouchBatch), and requires the warmed state to equal the simulated one
// after every batch under each dirty-bit policy: cache tags and line
// metadata, PTEs, pager state, the free list, and the VM events Estimate
// takes as exact from Final. Measure's gaps are only as good as this.
func TestTouchBatchMirrorsAccessBatch(t *testing.T) {
	vmEvents := []counters.Event{counters.EvDirtyFault, counters.EvZeroFillFault,
		counters.EvRefFault, counters.EvRefClear, counters.EvPageFlush}
	for _, spec := range []workload.Spec{workload.SLCSpec(), workload.Workload1Spec()} {
		for _, pol := range core.AllDirtyPolicies {
			cfg := testConfig(0)
			cfg.MemoryBytes = core.MiB(2) // the daemon runs early
			cfg.Dirty = pol
			ms := []*machine.Machine{machine.New(cfg), machine.New(cfg)}
			script := workload.NewScript(multiEnv{ms}, 3, spec)
			for _, m := range ms {
				m.Pager.Runnable = script.Runnable
			}
			var diverged string
			pos := trace.Pump(script, make([]trace.Rec, trace.BatchSize), 600_000, 0, func(b []trace.Rec) bool {
				ms[0].Engine.AccessBatch(b)
				ms[1].Engine.TouchBatch(b)
				sim, warm := ms[0], ms[1]
				simCache, warmCache := *sim.Cache, *warm.Cache
				simCache.Stats, warmCache.Stats = cache.Stats{}, cache.Stats{}
				switch {
				case !reflect.DeepEqual(simCache, warmCache):
					diverged = "cache"
				case !reflect.DeepEqual(sim.Table, warm.Table):
					diverged = "PTEs"
				case !sim.Pager.SamePages(warm.Pager) || sim.Pager.Stats != warm.Pager.Stats || sim.Pager.Cycles != warm.Pager.Cycles:
					diverged = "pager"
				case !reflect.DeepEqual(sim.Pool, warm.Pool):
					diverged = "free list"
				case sim.Engine.FaultsByKind != warm.Engine.FaultsByKind:
					diverged = "faults by kind"
				}
				for _, ev := range vmEvents {
					if diverged == "" && sim.Ctr.Count(ev) != warm.Ctr.Count(ev) {
						diverged = fmt.Sprintf("event %v", ev)
					}
				}
				return diverged == ""
			})
			if diverged != "" {
				t.Errorf("%s under %v: warmed %s diverged from simulation after %d refs", spec.Name, pol, diverged, pos)
			} else if ms[0].Pager.Stats.PageOuts == 0 {
				t.Errorf("%s under %v: no page-outs in %d refs; the daemon never ran", spec.Name, pol, pos)
			}
		}
	}
}
