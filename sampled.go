package spur

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sample"
)

// This file is the experiment-driver face of internal/sample: a sampled
// memory sweep (and Table 4.1 as a view of it) that estimates paper-scale
// (10⁹-reference) runs from a handful of representative intervals, plus the
// validation mode that checks the estimates against full runs at a scale
// where full runs are still affordable.
//
// Sampled results are estimates with error bars, not exact counts, so a
// sampled (workload, repetition) group is stored under its own kind: a
// sampled result can never be served where an exact one was asked for, or
// vice versa.
const sampledSweepKind = "memsweep-sampled"

// sampledSeedSalt separates sampled stream seeds from the exact drivers'
// per-cell seeds ("sampl" in hex).
const sampledSeedSalt = 0x73616d706c

// SampleOptions parameterises interval sampling. The zero value picks
// defaults scaled to the run length: 128 profiling intervals, 12 clusters,
// and half an interval of warmup before each representative.
type SampleOptions struct {
	// IntervalLen is the interval length in references. When 0 it is
	// derived as Refs/Intervals.
	IntervalLen int64
	// Intervals is the profiling interval count used to derive IntervalLen
	// when IntervalLen is 0 (default 128).
	Intervals int
	// K is the maximum number of phases (representative intervals); the
	// clustering may find fewer. Default 12.
	K int
	// Warmup is how many references to simulate before each representative
	// interval to refresh cache state — in particular the dirty-block
	// population that write-back and dirty-miss counts depend on, which
	// takes longest to reach steady state (default 2×IntervalLen).
	Warmup int64
	// Prefix is the exactly-simulated cold-start span in references,
	// rounded up to whole intervals. The startup transient (first-touch
	// faults over the initial working set) matches no steady-state phase,
	// so it is measured instead of extrapolated. Default
	// max(2×IntervalLen, 100000) capped at a quarter of the run; set
	// negative to disable.
	Prefix int64
}

func (o *SampleOptions) fill(refs int64) {
	if o.IntervalLen <= 0 {
		n := int64(o.Intervals)
		if n <= 0 {
			n = 128
		}
		o.IntervalLen = refs / n
		if o.IntervalLen < 1 {
			o.IntervalLen = 1
		}
		// Past ~10⁸ references a 1/128 interval would be several million
		// references each; cap the derived length so the detailed-simulation
		// budget (prefix + K warmed representatives, ~(2+3K)×IntervalLen)
		// stays flat as the stream grows instead of scaling with it. An
		// explicit IntervalLen is taken as given.
		if o.IntervalLen > 1_000_000 {
			o.IntervalLen = 1_000_000
		}
	}
	o.Intervals = int(refs / o.IntervalLen)
	if o.K <= 0 {
		o.K = 12
	}
	if o.Warmup <= 0 {
		o.Warmup = 2 * o.IntervalLen
	}
	if o.Prefix == 0 {
		o.Prefix = 2 * o.IntervalLen
		if o.Prefix < 100_000 {
			o.Prefix = 100_000
		}
		if o.Prefix > refs/4 {
			o.Prefix = refs / 4
		}
	} else if o.Prefix < 0 {
		o.Prefix = 0
	}
}

// SampledRow is one estimated cell of a sampled experiment: a workload,
// memory size and policy, with the full-run projection (totals and CI95
// half-widths) in Estimate and the per-repetition estimates in Reps.
type SampledRow struct {
	Workload core.WorkloadName `json:"workload"`
	MemMB    int               `json:"mem_mb"`
	Policy   RefPolicy         `json:"policy"`
	// Reps holds one estimate per repetition, each from its own derived
	// stream seed.
	Reps []sample.Estimate `json:"reps"`
	// Estimate is repetition 0's estimate, the cell's canonical one.
	Estimate sample.Estimate `json:"estimate"`
	// Events is the paper's event vocabulary reconstructed from the
	// canonical estimate (totals rounded to counts).
	Events core.Events `json:"events"`
}

// MemorySweepSampled estimates the memory-size study by interval sampling
// instead of running every cell exactly: per (workload, repetition) group
// one shared stream is profiled once, clustered into phases, and only each
// phase's representative interval is simulated — on all (size, policy)
// variants at once, so the generation passes are paid once per group
// rather than once per cell. The returned rows come in (workload, size,
// policy) order and carry full-run projections with CI95 half-widths.
//
// Scheduling knobs (Parallel, Progress) never change the numbers; a sampled
// sweep is byte-stable for a given (options, sample options) pair. A
// cancelled Context skips the groups not yet started and returns its error
// instead of rows.
func MemorySweepSampled(opts MemorySweepOptions, so SampleOptions) ([]SampledRow, error) {
	return memorySweepSampled(opts, so, nil)
}

// MemorySweepSampledStored runs MemorySweepSampled memoized in the result
// store at dir (created if needed), as MemorySweepStored does for exact
// sweeps. Each (workload, repetition) group is looked up under its own
// content address before its profiling pass; a hit fills the group's
// estimates, and a miss is stored as soon as it is measured, so a sweep
// killed at any point loses at most the groups in flight, and rerunning
// the same sweep computes only what is missing. The rows are
// byte-identical to MemorySweepSampled's. Any number of sweeps, exact and
// sampled, share one store, and another spec is never served a group it
// did not ask for. The first error, from measuring or from the store, is
// returned once every group has finished.
func MemorySweepSampledStored(opts MemorySweepOptions, so SampleOptions, dir string) ([]SampledRow, error) {
	st, err := expstore.Open(dir, expstore.Options{})
	if err != nil {
		return nil, err
	}
	return memorySweepSampled(opts, so, st)
}

// memorySweepSampled is MemorySweepSampled, memoizing every group in st
// when st is non-nil.
func memorySweepSampled(opts MemorySweepOptions, so SampleOptions, st *expstore.Store) ([]SampledRow, error) {
	if opts.Configure != nil {
		return nil, fmt.Errorf("spur: sampled sweeps cannot use Configure: the hook is not part of the hashable spec")
	}
	opts.fill()
	so.fill(opts.Refs)

	nv := len(opts.SizesMB) * len(opts.Policies)
	rows := make([]SampledRow, len(opts.Workloads)*nv)
	for wi, wl := range opts.Workloads {
		for si, mb := range opts.SizesMB {
			for pi, pol := range opts.Policies {
				rows[wi*nv+si*len(opts.Policies)+pi] = SampledRow{
					Workload: wl, MemMB: mb, Policy: pol,
					Reps: make([]sample.Estimate, opts.Reps),
				}
			}
		}
	}

	groups := len(opts.Workloads) * opts.Reps
	errs := make([]error, groups)
	popts := parallel.Options{Workers: opts.Parallel, Context: opts.Context, Progress: opts.Progress}
	if err := parallel.ForEach(groups, popts, func(g int) {
		wi, rep := g/opts.Reps, g%opts.Reps
		spec := specOf(opts.Workloads[wi])
		streamSeed := parallel.DeriveSeed(opts.Seed, sampledSeedSalt, uint64(wi), uint64(rep))
		variants := sampledVariants(opts.SizesMB, opts.Policies)

		ests, err := memo(st, func() (expstore.Key, error) {
			return sampledGroupKey(spec, streamSeed, opts.Refs, so, variants)
		}, func() ([]sample.Estimate, error) {
			profile := sample.BuildProfile(spec, streamSeed, opts.Refs, so.IntervalLen)
			plan := sample.BuildPlan(profile, so.K, streamSeed, so.Prefix)
			measured, err := sample.Measure(spec, streamSeed, plan, variants, sample.MeasureOptions{Warmup: so.Warmup})
			if err != nil {
				return nil, err
			}
			ests := make([]sample.Estimate, len(variants))
			for vi := range variants {
				ests[vi] = plan.Estimate(measured[vi], variants[vi].Cfg.Timing, so.Warmup)
			}
			return ests, nil
		})
		if err != nil {
			errs[g] = err
			return
		}
		for vi, est := range ests {
			rows[wi*nv+vi].Reps[rep] = est
		}
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range rows {
		rows[i].Estimate = rows[i].Reps[0]
		rows[i].Events = sample.EventsFromEstimate(rows[i].Estimate)
	}
	return rows, nil
}

// sampledVariants lists the machines a sampled group measures, one per
// (memory size × reference-bit policy), sizes outermost: the order of the
// sweep's rows and of the group's store key.
func sampledVariants(sizesMB []int, policies []RefPolicy) []sample.Variant {
	variants := make([]sample.Variant, 0, len(sizesMB)*len(policies))
	for _, mb := range sizesMB {
		for _, pol := range policies {
			cfg := DefaultConfig()
			cfg.MemoryBytes = core.MiB(mb)
			cfg.Ref = pol
			variants = append(variants, sample.Variant{
				Name: fmt.Sprintf("%dMB/%s", mb, pol),
				Cfg:  cfg,
			})
		}
	}
	return variants
}

// sampledGroupKey is the store address of one sampled (workload,
// repetition) group: everything its estimates depend on. The stream seed
// is derived from the sweep seed, workload index and repetition; the
// variants carry every memory size and policy; the sample options are
// filled for the run length.
func sampledGroupKey(spec Spec, streamSeed uint64, refs int64, so SampleOptions, variants []sample.Variant) (expstore.Key, error) {
	return expstore.KeyOf(Version, sampledSweepKind, struct {
		Spec        Spec             `json:"spec"`
		StreamSeed  uint64           `json:"stream_seed"`
		Refs        int64            `json:"refs"`
		IntervalLen int64            `json:"interval_len"`
		K           int              `json:"k"`
		Warmup      int64            `json:"warmup"`
		Prefix      int64            `json:"prefix"`
		Variants    []sample.Variant `json:"variants"`
	}{spec, streamSeed, refs, so.IntervalLen, so.K, so.Warmup, so.Prefix, variants})
}

// Table41Sampled estimates the reference-bit experiment by interval
// sampling: MemorySweepSampled over Table 4.1's grid (both workloads,
// opts.SizesMB, all reference-bit policies).
func Table41Sampled(opts Table41Options, so SampleOptions) ([]SampledRow, error) {
	return MemorySweepSampled(opts.sweep(), so)
}

// Table41SampledStored is Table41Sampled memoized through
// MemorySweepSampledStored, so the sampled sweep over Table 4.1's grid and
// the sampled Table 4.1 serve each other's groups.
func Table41SampledStored(opts Table41Options, so SampleOptions, dir string) ([]SampledRow, error) {
	return MemorySweepSampledStored(opts.sweep(), so, dir)
}

// sampledMetric returns the named metric of a row's canonical estimate
// (zero if absent).
func sampledMetric(r SampledRow, name string) sample.MetricEstimate {
	m, _ := r.Estimate.Metric(name)
	return m
}

// SampledSweepCSV renders a sampled sweep as CSV: per cell the projected
// totals with their CI95 half-widths, plus the sampling design columns
// (phase count and simulated references) that show what the estimate cost.
func SampledSweepCSV(rows []SampledRow) string {
	s := "workload,mem_mb,policy,page_ins,page_ins_ci95,ref_faults,ref_faults_ci95," +
		"page_flushes,page_flushes_ci95,elapsed_s,elapsed_ci95,misses,miss_rate," +
		"k,simulated_refs,total_refs\n"
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		pi := sampledMetric(r, "page_ins")
		rf := sampledMetric(r, "ref_faults")
		fl := sampledMetric(r, "page_flushes")
		el := sampledMetric(r, "elapsed_s")
		ms := sampledMetric(r, "misses")
		s += fmt.Sprintf("%s,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%d,%d,%d\n",
			r.Workload, r.MemMB, r.Policy,
			f(pi.Total), f(pi.CI95), f(rf.Total), f(rf.CI95),
			f(fl.Total), f(fl.CI95), f(el.Total), f(el.CI95),
			f(ms.Total), f(ms.Rate),
			r.Estimate.K, r.Estimate.SimulatedRefs, r.Estimate.TotalRefs)
	}
	return s
}

// RenderTable41Sampled renders sampled rows in the Table 4.1 layout, with
// the estimator's CI95 half-widths as the error bars and each policy's
// page-ins and elapsed time relative to the MISS policy at the same
// workload and memory size.
func RenderTable41Sampled(rows []SampledRow) *report.Table {
	t := &report.Table{
		Title: "Table 4.1 (sampled): Reference Bit Results, estimated from representative intervals",
		Header: []string{"Workload", "Memory(MB)", "Policy",
			"Page-Ins", "±95%", "(rel)", "Elapsed(s)", "±95%", "(rel)", "sim refs"},
	}
	base := func(wl core.WorkloadName, mb int) (p, e float64) {
		for _, r := range rows {
			if r.Workload == wl && r.MemMB == mb && r.Policy == RefMISS {
				return sampledMetric(r, "page_ins").Total, sampledMetric(r, "elapsed_s").Total
			}
		}
		return 0, 0
	}
	for _, r := range rows {
		pi := sampledMetric(r, "page_ins")
		el := sampledMetric(r, "elapsed_s")
		bp, be := base(r.Workload, r.MemMB)
		relP, relE := 0.0, 0.0
		if bp > 0 {
			relP = pi.Total / bp
		}
		if be > 0 {
			relE = el.Total / be
		}
		t.Add(string(r.Workload), r.MemMB, r.Policy.String(),
			fmt.Sprintf("%.0f", pi.Total), "±"+report.Float(pi.CI95), report.Pct(relP),
			fmt.Sprintf("%.2f", el.Total), "±"+report.Float(el.CI95), report.Pct(relE),
			r.Estimate.SimulatedRefs)
	}
	return t
}

// --- Validation --------------------------------------------------------------

// ValidateOptions parameterises ValidateSampling. The zero value runs the
// acceptance design: both workloads at 8 MB under all three reference-bit
// policies, 10⁷ references, sampled and full on the same stream seed.
type ValidateOptions struct {
	Refs      int64               // default 10,000,000
	Seed      uint64              // default 1
	SizesMB   []int               // default {8}
	Policies  []RefPolicy         // default all three
	Workloads []core.WorkloadName // default SLC and WORKLOAD1
	Sample    SampleOptions
	// MaxRateErr bounds the relative error of the derived miss and
	// write-back rates (default 0.05).
	MaxRateErr float64
}

func (o *ValidateOptions) fill() {
	if o.Refs == 0 {
		o.Refs = 10_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{8}
	}
	if len(o.Policies) == 0 {
		o.Policies = RefPolicies
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []core.WorkloadName{core.SLC, core.Workload1}
	}
	if o.MaxRateErr == 0 {
		o.MaxRateErr = 0.05
	}
	o.Sample.fill(o.Refs)
}

// SampleCheck is one metric's sampled-vs-full comparison on one cell.
type SampleCheck struct {
	Workload string  `json:"workload"`
	MemMB    int     `json:"mem_mb"`
	Policy   string  `json:"policy"`
	Metric   string  `json:"metric"`
	Full     float64 `json:"full"`
	Est      float64 `json:"estimate"`
	CI95     float64 `json:"ci95"`
	RelErr   float64 `json:"rel_err"`
	// Bound is the relative-error bound for derived rates (0 when the
	// check is CI-only).
	Bound float64 `json:"bound,omitempty"`
	Pass  bool    `json:"pass"`
}

// ValidationReport is ValidateSampling's structured outcome; it marshals to
// JSON for the CI artifact.
type ValidationReport struct {
	Refs          int64         `json:"refs"`
	Seed          uint64        `json:"seed"`
	IntervalLen   int64         `json:"interval_len"`
	K             int           `json:"k"`
	Warmup        int64         `json:"warmup"`
	Prefix        int64         `json:"prefix"`
	SimulatedRefs int64         `json:"simulated_refs"`
	Checks        []SampleCheck `json:"checks"`
	Pass          bool          `json:"pass"`
}

// Failures returns the checks that did not pass.
func (r ValidationReport) Failures() []SampleCheck {
	var bad []SampleCheck
	for _, c := range r.Checks {
		if !c.Pass {
			bad = append(bad, c)
		}
	}
	return bad
}

// relErr is |est-full| / |full|, with a zero denominator treated as exact
// match when est is also zero and as total error otherwise.
func relErr(est, full float64) float64 {
	if full == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-full) / math.Abs(full)
}

// ValidateSampling runs the sampled estimator head-to-head against full
// simulation on the same stream seeds and checks, per cell and per metric,
// that the full-run value falls within the estimate's CI95 half-width
// (plus half a count of rounding slack), and that the derived miss and
// write-back rates are within MaxRateErr relative error. The full runs go
// through the same measuring pipeline as the sampled ones (a trivial
// one-interval plan covering the whole stream), so the comparison can never
// be skewed by a second code path.
func ValidateSampling(opts ValidateOptions) (ValidationReport, error) {
	opts.fill()
	so := opts.Sample
	rep := ValidationReport{
		Refs: opts.Refs, Seed: opts.Seed,
		IntervalLen: so.IntervalLen, K: so.K, Warmup: so.Warmup, Prefix: so.Prefix,
	}

	for wi, wl := range opts.Workloads {
		spec := specOf(wl)
		streamSeed := parallel.DeriveSeed(opts.Seed, sampledSeedSalt, uint64(wi), 0)
		variants := sampledVariants(opts.SizesMB, opts.Policies)

		profile := sample.BuildProfile(spec, streamSeed, opts.Refs, so.IntervalLen)
		plan := sample.BuildPlan(profile, so.K, streamSeed, so.Prefix)
		rep.SimulatedRefs = plan.SimulatedRefs(so.Warmup)
		sampled, err := sample.Measure(spec, streamSeed, plan, variants, sample.MeasureOptions{Warmup: so.Warmup})
		if err != nil {
			return rep, err
		}
		// The exact reference: one "interval" spanning the whole stream.
		fullPlan := sample.Plan{
			TotalRefs: opts.Refs, IntervalLen: opts.Refs, K: 1,
			Chosen: []sample.Chosen{{Index: 0, Weight: 1}},
		}
		full, err := sample.Measure(spec, streamSeed, fullPlan, variants, sample.MeasureOptions{})
		if err != nil {
			return rep, err
		}

		for vi := range variants {
			estS := plan.Estimate(sampled[vi], variants[vi].Cfg.Timing, so.Warmup)
			estF := fullPlan.Estimate(full[vi], variants[vi].Cfg.Timing, 0)
			mb, pol := variants[vi].Cfg.MemoryBytes>>20, variants[vi].Cfg.Ref.String()
			for _, name := range sample.MetricNames {
				ms, _ := estS.Metric(name)
				mf, _ := estF.Metric(name)
				c := SampleCheck{
					Workload: string(wl), MemMB: mb, Policy: pol, Metric: name,
					Full: mf.Total, Est: ms.Total, CI95: ms.CI95,
					RelErr: relErr(ms.Total, mf.Total),
				}
				// Within the error bar, with half a count of rounding slack
				// (counts are integers; a CI of 0.4 on an exact-match count
				// must not fail on float noise).
				c.Pass = math.Abs(ms.Total-mf.Total) <= ms.CI95+0.5
				rep.Checks = append(rep.Checks, c)
			}
			// Derived rates: the paper's headline comparisons are rate-based,
			// so these get hard relative-error bounds on top of the CI check.
			// Rates are totals over the stream length — the estimate's Rate
			// field is the post-prefix steady-state rate and would not be
			// comparable to the full run's whole-stream rate.
			msM, _ := estS.Metric("misses")
			mfM, _ := estF.Metric("misses")
			msW, _ := estS.Metric("bus_writes")
			mfW, _ := estF.Metric("bus_writes")
			refs := float64(opts.Refs)
			for _, rc := range []struct {
				name      string
				est, full float64
			}{
				{"miss_rate", msM.Total / refs, mfM.Total / refs},
				{"wb_rate", msW.Total / refs, mfW.Total / refs},
			} {
				e := relErr(rc.est, rc.full)
				rep.Checks = append(rep.Checks, SampleCheck{
					Workload: string(wl), MemMB: mb, Policy: pol, Metric: rc.name,
					Full: rc.full, Est: rc.est,
					RelErr: e, Bound: opts.MaxRateErr,
					Pass: e <= opts.MaxRateErr,
				})
			}
		}
	}

	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
			break
		}
	}
	return rep, nil
}
