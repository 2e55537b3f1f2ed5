package spur

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/expstore"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/stats"
)

// SweepRep is one repetition of a sweep cell: its derived workload seed and
// the (possibly quarantined) hardened-run outcome.
type SweepRep struct {
	Seed   uint64
	Result Result
	// Failure is non-nil when this repetition was quarantined: its run
	// crashed, breached an invariant, or overran its deadline. Result then
	// holds whatever completed before the failure.
	Failure *RunFailure
}

// MemorySweepRow is one point of the memory-size study: a workload at one
// memory size under one reference-bit policy, measured over Reps
// repetitions with per-repetition derived seeds.
type MemorySweepRow struct {
	Workload core.WorkloadName
	MemMB    int
	Policy   RefPolicy
	// Result and Failure are repetition 0's outcome, the cell's canonical
	// run (charts and the per-run CSV columns read these).
	Result  Result
	Failure *RunFailure
	// Reps holds every repetition in repetition order.
	Reps []SweepRep
	// Summaries over the non-quarantined repetitions (CI95 via the
	// Student-t half-width, as Table 4.1 computes it).
	PageIns   stats.Summary
	Elapsed   stats.Summary // seconds
	RefFaults stats.Summary
	Flushes   stats.Summary
}

// MemorySweepOptions parameterises the memory-size study. The zero value
// runs the full design: both workloads, all reference-bit policies,
// 4-16 MB, one repetition, GOMAXPROCS-wide. Results depend only on the
// experiment knobs (never on Parallel, Progress or scheduling), which is
// what lets the spurd daemon memoize sweeps by content address — its wire
// form, repro/pkg/client.SweepRequest, mirrors exactly the result-shaping
// fields here.
type MemorySweepOptions struct {
	// SizesMB defaults to 4..16 MB (the paper sweeps only 5, 6, 8 and
	// closes with "we are conducting further studies to evaluate ...
	// larger memory sizes").
	SizesMB []int
	// Policies defaults to all three reference-bit policies.
	Policies []RefPolicy
	// Workloads defaults to both.
	Workloads []core.WorkloadName
	Refs      int64
	// Seed is the experiment seed. Each (cell, repetition) derives its own
	// workload seed from it via parallel.DeriveSeed, so no two cells share
	// an RNG stream.
	Seed uint64
	// Reps is the number of repetitions per cell (the paper ran five, with
	// a randomized experiment design); 0 means 1.
	Reps int

	// Parallel bounds how many cells run concurrently (1 = serial; <= 0
	// means GOMAXPROCS). Results are byte-identical at any setting: every
	// run's seed depends only on (Seed, cell, rep), and result slots are
	// indexed by cell coordinates, not completion order.
	Parallel int
	// Progress, when set, is called after each run completes with the
	// count done and the total. Calls are serialized.
	Progress func(done, total int)
	// Context, when non-nil, cancels the sweep early; runs not yet
	// started are skipped and their repetitions stay zero-valued.
	Context context.Context

	// Hardening. AuditEvery audits machine invariants every N references
	// of every cell (0 = final audit only); ArtifactDir receives a JSON
	// repro bundle per quarantined run; Deadline bounds each run's
	// wall-clock time (zero = unbounded).
	AuditEvery  int64
	ArtifactDir string
	Deadline    time.Duration

	// Configure, when set, can adjust each cell's config before it runs
	// (e.g. schedule fault injection for specific cells in chaos drills).
	// It is called once per (cell, repetition), before any run starts.
	Configure func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy)
}

func (o *MemorySweepOptions) fill() {
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{4, 5, 6, 7, 8, 10, 12, 16}
	}
	if len(o.Policies) == 0 {
		o.Policies = RefPolicies
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []core.WorkloadName{core.SLC, core.Workload1}
	}
	if o.Refs == 0 {
		o.Refs = 8_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
}

// sweepRunKind is the store kind of one hardened sweep run, the unit a
// stored sweep memoizes.
const sweepRunKind = "memsweep-run"

// sweepRunKey is the store address of one sweep run: everything its
// outcome depends on. The derived seed, refs, memory size and policy all
// live in the Config, so a run of another spec can only miss.
func sweepRunKey(cfg Config, spec Spec, auditEvery int64) (expstore.Key, error) {
	return expstore.KeyOf(Version, sweepRunKind, struct {
		Config     Config `json:"config"`
		Spec       Spec   `json:"spec"`
		AuditEvery int64  `json:"audit_every"`
	}{cfg, spec, auditEvery})
}

// MemorySweep runs the paper's closing question — what happens to
// reference-bit maintenance as memories keep growing — as a parameter
// sweep: page-ins and elapsed time for each policy across memory sizes.
// The paper's prediction: the benefit of reference bits "will tend to
// decrease and may eventually become a hindrance".
//
// The sweep follows the paper's experiment design: Reps repetitions per
// cell, executed in a deterministically shuffled order (randomized
// experiment design), each repetition on its own derived seed. Runs are
// dispatched Parallel at a time through the bounded engine; every run stays
// under the hardened runner, so a run that crashes, breaches an invariant,
// or overruns its deadline is quarantined — its repetition carries the
// RunFailure (and repro bundle, if ArtifactDir is set) — while all sibling
// runs complete normally.
func MemorySweep(opts MemorySweepOptions) []MemorySweepRow {
	rows, _ := memorySweep(opts, nil) // only a store can fail
	return rows
}

// MemorySweepStored runs MemorySweep memoized in the result store at dir
// (created if needed). Each (cell, rep) run is looked up under its own
// content address; a hit fills its slot, and a miss is stored as soon as it
// finishes, so a sweep killed at any point loses at most the runs in
// flight, and rerunning the same sweep computes only what is missing. The
// rows (and therefore MemorySweepCSV) are byte-identical to MemorySweep's.
// A run is keyed by its configuration, not its cell, so any number of
// sweeps share one store, a sweep with more repetitions reuses the earlier
// ones, and another spec is never served a run it did not ask for. The
// first store error is returned once the sweep has finished.
//
// Sweeps with a Configure hook or a Deadline cannot be stored: the hook is
// not part of the hashable spec, and deadline quarantines depend on
// machine load, so neither replays deterministically.
func MemorySweepStored(opts MemorySweepOptions, dir string) ([]MemorySweepRow, error) {
	if opts.Configure != nil {
		return nil, fmt.Errorf("spur: stored sweeps cannot use Configure: the hook is not part of the hashable spec")
	}
	if opts.Deadline != 0 {
		return nil, fmt.Errorf("spur: stored sweeps cannot use Deadline: deadline quarantines are load-dependent and do not replay deterministically")
	}
	st, err := expstore.Open(dir, expstore.Options{})
	if err != nil {
		return nil, err
	}
	return memorySweep(opts, st)
}

// memorySweep is MemorySweep, memoizing every run in st when st is
// non-nil, and returning the first store error.
func memorySweep(opts MemorySweepOptions, st *expstore.Store) ([]MemorySweepRow, error) {
	cells, rows := memorySweepCells(opts)
	runs, err := driver{
		st:   st,
		par:  parallel.Options{Workers: opts.Parallel, Context: opts.Context, Progress: opts.Progress},
		hard: RunOptions{AuditEvery: opts.AuditEvery, Deadline: opts.Deadline, ArtifactDir: opts.ArtifactDir},
	}.run(cells)
	return rows(runs), err
}

// memorySweepCells returns the sweep's (cell, repetition) runs as cells,
// and its rows from their runs.
func memorySweepCells(opts MemorySweepOptions) ([]cell, func([]cellRun) []MemorySweepRow) {
	opts.fill()
	var rows []MemorySweepRow
	for _, wl := range opts.Workloads {
		for _, mb := range opts.SizesMB {
			for _, pol := range opts.Policies {
				rows = append(rows, MemorySweepRow{Workload: wl, MemMB: mb, Policy: pol, Reps: make([]SweepRep, opts.Reps)})
			}
		}
	}

	// Randomized experiment design: the execution order of the (cell, rep)
	// runs is shuffled deterministically per seed. Result slots are indexed
	// by coordinates, so the output never depends on this order — only the
	// interleaving of resource pressure does, which is what the paper's
	// design randomizes against. cmd/spurbench's traced Table 4.1 rebuild
	// copies this order.
	type job struct{ cell, rep int }
	jobs := make([]job, 0, len(rows)*opts.Reps)
	for ci := range rows {
		for rep := 0; rep < opts.Reps; rep++ {
			jobs = append(jobs, job{ci, rep})
		}
	}
	stats.Shuffle(jobs, opts.Seed*0x9e3779b9+7)

	cells := make([]cell, len(jobs))
	for i, j := range jobs {
		r := rows[j.cell]
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(r.MemMB)
		cfg.TotalRefs = opts.Refs
		cfg.Seed = parallel.DeriveSeed(opts.Seed, uint64(j.cell), uint64(j.rep))
		cfg.Ref = r.Policy
		if opts.Configure != nil {
			opts.Configure(&cfg, r.Workload, r.MemMB, r.Policy)
		}
		cells[i] = cell{spec: specOf(r.Workload), cfg: cfg}
	}
	return cells, func(runs []cellRun) []MemorySweepRow {
		for i, j := range jobs {
			rows[j.cell].Reps[j.rep] = runs[i].SweepRep
		}
		for i := range rows {
			r := &rows[i]
			r.Result = r.Reps[0].Result
			r.Failure = r.Reps[0].Failure
			var pageIns, elapsed, refFaults, flushes []float64
			for _, rep := range r.Reps {
				if rep.Failure != nil {
					continue
				}
				ev := rep.Result.Events
				pageIns = append(pageIns, float64(ev.PageIns))
				elapsed = append(elapsed, rep.Result.ElapsedSeconds)
				refFaults = append(refFaults, float64(ev.RefFaults))
				flushes = append(flushes, float64(ev.PageFlushes))
			}
			r.PageIns = stats.Summarize(pageIns)
			r.Elapsed = stats.Summarize(elapsed)
			r.RefFaults = stats.Summarize(refFaults)
			r.Flushes = stats.Summarize(flushes)
		}
		return rows
	}
}

// cell is one run behind a table: a workload under a Config, whose Seed
// and TotalRefs name the run's stream and length. bus marks a cell whose
// table reads the bus counters, so a run stored without them is rerun.
type cell struct {
	spec Spec
	cfg  Config
	bus  bool
}

// cellRun is one cell's outcome, and the value a store keeps for it: a
// sweep repetition, plus the run's bus writes and its cache's victim
// write-backs (DirtySweep reads them; runs stored before lack them).
type cellRun struct {
	SweepRep
	Bus *busCounts `json:",omitempty"`
}

type busCounts struct{ Writes, WriteBacks uint64 }

// driver is the one exact-run loop behind every table and sweep: it runs
// cells hardened, par.Workers at a time in list order, memoized in st
// under their sweepRunKey when st is set. Hardening changes no number.
type driver struct {
	st   *expstore.Store
	par  parallel.Options
	hard RunOptions
}

// run returns the cells' runs in list order and the first store error. A
// cancelled context leaves the cells not yet started zero-valued; callers
// that pass one observe it themselves. No machine outlives its run.
func (d driver) run(cells []cell) ([]cellRun, error) {
	runs := make([]cellRun, len(cells))
	errs := make([]error, len(cells))
	_ = parallel.ForEach(len(cells), d.par, func(i int) {
		c := cells[i]
		run := func() (cellRun, error) {
			m, res, fail := machine.RunSpecHardened(c.cfg, c.spec, d.hard)
			r := cellRun{SweepRep: SweepRep{Seed: c.cfg.Seed, Result: res, Failure: fail}}
			if m != nil {
				r.Bus = &busCounts{m.Ctr.Count(counters.EvBusWrite), m.Cache.Stats.WriteBacks}
			}
			return r, nil
		}
		runs[i], errs[i] = memo(d.st, func() (expstore.Key, error) {
			return sweepRunKey(c.cfg, c.spec, d.hard.AuditEvery)
		}, run)
		if c.bus && runs[i].Bus == nil && errs[i] == nil {
			runs[i], _ = run()
		}
	})
	for _, err := range errs {
		if err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// table runs a table's cells, and stops the table at its first quarantined
// cell with that cell's reason once every sibling has finished and stored,
// or with the context's error when it skipped cells.
func (d driver) table(cells []cell) ([]cellRun, error) {
	runs, err := d.run(cells)
	if ctx := d.par.Context; err == nil && ctx != nil {
		err = ctx.Err()
	}
	for i := 0; err == nil && i < len(runs); i++ {
		if f := runs[i].Failure; f != nil {
			c := cells[i].cfg
			err = fmt.Errorf("spur: %s at %d MB, %d KB cache, %s dirty bits, %s reference bits, seed %d: %w",
				cells[i].spec.Name, c.MemoryBytes>>20, c.CacheBytes>>10, c.Dirty, c.Ref, c.Seed, f)
		}
	}
	return runs, err
}

// alone runs one table's cells without a store and returns its rows; a
// quarantined run makes it panic with the run's reason.
func alone[R any](cells []cell, rows func([]cellRun) R) R {
	runs, err := driver{}.table(cells)
	if err != nil {
		panic(err.Error())
	}
	return rows(runs)
}

// memo serves a value from st under key, or computes it with run and
// stores it as JSON; with a nil st it only runs. A stored value that does
// not decode is recomputed. Both stored drivers, exact and sampled, resume
// through it: a sweep killed at any point loses only the values in flight.
func memo[T any](st *expstore.Store, key func() (expstore.Key, error), run func() (T, error)) (T, error) {
	if st == nil {
		return run()
	}
	var v T
	k, err := key()
	if err != nil {
		return v, err
	}
	if b, ok := st.Get(k); ok && json.Unmarshal(b, &v) == nil {
		return v, nil
	}
	if v, err = run(); err != nil {
		return v, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return v, fmt.Errorf("spur: encoding %T for the store: %w", v, err)
	}
	return v, st.Put(k, b)
}

// SweepFailures extracts the cells with at least one quarantined
// repetition.
func SweepFailures(rows []MemorySweepRow) []MemorySweepRow {
	var bad []MemorySweepRow
	for _, r := range rows {
		for _, rep := range r.Reps {
			if rep.Failure != nil {
				bad = append(bad, r)
				break
			}
		}
	}
	return bad
}

// MemorySweepChart renders one workload's page-in curves per policy
// (repetition means; cells whose every repetition was quarantined are
// skipped).
func MemorySweepChart(rows []MemorySweepRow, wl core.WorkloadName) string {
	ch := &report.Chart{
		Title:  fmt.Sprintf("Page-ins vs memory size — %s", wl),
		XLabel: "memory (MB)",
		YLabel: "page-ins",
	}
	for _, pol := range RefPolicies {
		var xs, ys []float64
		for _, r := range rows {
			if r.Workload == wl && r.Policy == pol && r.PageIns.N > 0 {
				xs = append(xs, float64(r.MemMB))
				ys = append(ys, r.PageIns.Mean)
			}
		}
		if len(xs) > 0 {
			ch.AddSeries(pol.String(), xs, ys)
		}
	}
	return ch.String()
}

// MemorySweepCSV renders the sweep as CSV for external plotting: the
// canonical (repetition 0) run's raw counts, then the cross-repetition
// mean and 95% confidence half-width columns. The output is deterministic
// for a given seed at any Parallel setting.
func MemorySweepCSV(rows []MemorySweepRow) string {
	s := "workload,mem_mb,policy,page_ins,ref_faults,ref_clears,page_flushes,elapsed_s,cycles," +
		"reps,ok_reps,page_ins_mean,page_ins_ci95,elapsed_mean,elapsed_ci95\n"
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		ev := r.Result.Events
		s += fmt.Sprintf("%s,%d,%s,%d,%d,%d,%d,%.2f,%d,%d,%d,%s,%s,%s,%s\n",
			r.Workload, r.MemMB, r.Policy, ev.PageIns, ev.RefFaults,
			ev.RefClears, ev.PageFlushes, r.Result.ElapsedSeconds, r.Result.Cycles,
			len(r.Reps), r.PageIns.N,
			f(r.PageIns.Mean), f(r.PageIns.CI95()),
			f(r.Elapsed.Mean), f(r.Elapsed.CI95()))
	}
	return s
}
