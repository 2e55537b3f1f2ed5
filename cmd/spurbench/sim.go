package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simWorkloads, spur.MemorySizesMB and spur.RefPolicies span both
// simulator workloads' grid: Table 4.1's design.
var simWorkloads = []core.WorkloadName{core.SLC, core.Workload1}

// batchRefs is machine.Run's batch: the rebuilt loops fill and simulate the
// same 4096-reference buffers the program does.
const batchRefs = 4096

// sampledSeedSalt is spur's salt for sampled stream seeds ("sampl"). The
// sweep rebuild derives its stream seeds the same way; if the driver ever
// changes it, trace.faithful reads 0.
const sampledSeedSalt = 0x73616d706c

func specOf(wl core.WorkloadName) spur.Spec {
	if wl == core.Workload1 {
		return spur.Workload1()
	}
	return spur.SLC()
}

func cellConfig(mb int, pol spur.RefPolicy) spur.Config {
	cfg := spur.DefaultConfig()
	cfg.MemoryBytes = core.MiB(mb)
	cfg.Ref = pol
	return cfg
}

// readyEnv turns a spurbench process into the simulator workloads' set-up
// probe: given a workload seed, it builds the machine and the workload
// script of the grid's first cell, writes one byte to standard output and
// exits.
const readyEnv = "SPURBENCH_READY"

// ready is the set-up probe's work; it returns the process's exit code.
func ready(seed string) int {
	s, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spurbench: %s=%q: %v\n", readyEnv, seed, err)
		return 2
	}
	cfg := cellConfig(spur.MemorySizesMB[0], spur.RefPolicies[0])
	cfg.Seed = parallel.DeriveSeed(s, 0, 0)
	workload.NewScript(spur.NewMachine(cfg), cfg.Seed, specOf(simWorkloads[0]))
	if _, err := os.Stdout.Write([]byte{'\n'}); err != nil {
		return 1
	}
	return 0
}

// simStage runs one simulator experiment.
type simStage struct {
	sz   size
	seed uint64
}

// start times a fresh spurbench process from its start until it has built
// the first cell's machine and workload script: what a user of the
// simulator waits for before the first reference is simulated, package
// initialization included.
func (s *simStage) start() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", readyEnv, s.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	_, rerr := io.ReadFull(out, make([]byte, 1))
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil {
		return 0, fmt.Errorf("set-up probe: %w", rerr)
	}
	return d, nil
}

func (s *simStage) close() {}

type table41Stage struct{ simStage }

func prepareTable41(sz size, seed uint64) (stage, error) {
	return &table41Stage{simStage{sz: sz, seed: seed}}, nil
}

func (s *table41Stage) run(tr *tracer) (opResult, error) {
	if tr != nil {
		return s.rebuild(tr)
	}
	var done []time.Duration
	t0 := time.Now()
	rows := spur.Table41(spur.Table41Options{
		Refs: s.sz.Refs, Reps: s.sz.Reps, Seed: s.seed, Parallel: workers,
		Progress: func(int, int) { done = append(done, time.Since(t0)) },
	})
	wall := time.Since(t0)
	rec, err := rowsRecord("table41", rows)
	return opResult{
		wall: wall, records: []record{rec}, layers: progressLayers(done),
		extra: map[string]float64{"paper_mae_pp": paperMAE(rows)},
	}, err
}

// rowsRecord records an experiment's rows as JSON: the structured output
// that RenderTable41 and SampledSweepCSV both render.
func rowsRecord(key string, rows any) (record, error) {
	b, err := json.Marshal(rows)
	if err != nil {
		return record{}, fmt.Errorf("encoding %s rows: %w", key, err)
	}
	return newRecord(key, b, nil), nil
}

// paperMAE is the mean absolute difference, in percentage points, between
// measured and published page-ins relative to MISS over Table 4.1's twelve
// non-MISS cells.
func paperMAE(rows []spur.Table41Row) float64 {
	var sum float64
	var n int
	for _, r := range rows {
		for _, p := range core.PaperTable41 {
			if r.Policy != spur.RefMISS && p.Workload == r.Workload && p.MemMB == r.MemMB && p.Policy == r.Policy {
				sum += math.Abs(100*r.RelPageIns - float64(p.PageInsPct))
				n++
			}
		}
	}
	return sum / float64(n)
}

// progressLayers derives the parallel layer's counts from the completion
// times the driver's Progress callback reported. tail_idle_s is the worker
// time spent waiting for the last job once the first worker found no job
// left.
func progressLayers(done []time.Duration) map[string]float64 {
	n := len(done)
	idle := 0.0
	for k := 1; k < workers && k < n; k++ {
		idle += (done[n-1] - done[n-1-k]).Seconds()
	}
	return map[string]float64{"parallel.jobs": float64(n), "parallel.tail_idle_s": idle}
}

type cell struct {
	wl  core.WorkloadName
	mb  int
	pol spur.RefPolicy
}

// rebuild runs Table 4.1 the way spur.Table41 does, job for job, but
// drives each machine from the benchmark with a span around every batch of
// generation and simulation. Its rows must equal the driver's.
func (s *table41Stage) rebuild(tr *tracer) (opResult, error) {
	var cells []cell
	for _, wl := range simWorkloads {
		for _, mb := range spur.MemorySizesMB {
			for _, pol := range spur.RefPolicies {
				cells = append(cells, cell{wl, mb, pol})
			}
		}
	}
	type job struct{ cell, rep int }
	var jobs []job
	results := make([][]spur.Result, len(cells))
	for ci := range cells {
		results[ci] = make([]spur.Result, s.sz.Reps)
		for rep := 0; rep < s.sz.Reps; rep++ {
			jobs = append(jobs, job{ci, rep})
		}
	}
	stats.Shuffle(jobs, s.seed*0x9e3779b9+7) // the driver's run order

	root := tr.open("table41", -1)
	err := parallel.ForEach(len(jobs), parallel.Options{Workers: workers}, func(i int) {
		j := jobs[i]
		c := cells[j.cell]
		id := tr.open("job", root)
		cfg := cellConfig(c.mb, c.pol)
		cfg.TotalRefs = s.sz.Refs
		cfg.Seed = parallel.DeriveSeed(s.seed, uint64(j.cell), uint64(j.rep))
		var n int64
		results[j.cell][j.rep], n = tracedRun(tr, id, cfg, specOf(c.wl), false)
		tr.close(id, n)
	})
	tr.close(root, 0)
	if err != nil {
		return opResult{}, err
	}
	a := tr.totals()
	wall := a["table41"].dur
	rows := table41Rows(cells, results)
	rec, err := rowsRecord("table41", rows)
	var ev core.Events
	for _, rs := range results {
		for _, r := range rs {
			ev.Refs += r.Events.Refs
			ev.Misses += r.Events.Misses
			ev.PageIns += r.Events.PageIns
			ev.RefFaults += r.Events.RefFaults
			ev.RefClears += r.Events.RefClears
			ev.PageFlushes += r.Events.PageFlushes
			ev.Nds += r.Events.Nds
		}
	}
	refs := float64(a["gen"].n)
	perMref := func(c uint64) float64 { return 1e6 * float64(c) / float64(ev.Refs) }
	runs := a["job"]
	return opResult{
		wall: wall, records: []record{rec}, rebuilt: true,
		layers: map[string]float64{
			"workload.gen_ns_per_ref":  float64(a["gen"].dur) / refs,
			"workload.gen_share":       float64(a["gen"].dur) / float64(runs.dur),
			"core.access_ns_per_ref":   float64(a["access"].dur) / refs,
			"core.miss_per_kref":       1e3 * float64(ev.Misses) / float64(ev.Refs),
			"core.pagein_per_mref":     perMref(ev.PageIns),
			"core.reffault_per_mref":   perMref(ev.RefFaults),
			"core.refclear_per_mref":   perMref(ev.RefClears),
			"core.flush_per_mref":      perMref(ev.PageFlushes),
			"core.dirtyfault_per_mref": perMref(ev.Nds),
			"machine.run_ns_per_ref":   float64(runs.dur) / refs,
			"machine.loop_share":       float64(runs.self) / float64(runs.dur),
			"parallel.busy_frac":       float64(runs.dur) / (float64(wall) * workers),
		},
	}, err
}

// tracedRun is machine.RunSpec with a span around every NextBatch and every
// AccessBatch (or TouchBatch, for functional warming) call.
func tracedRun(tr *tracer, parent int, cfg spur.Config, spec spur.Spec, touch bool) (spur.Result, int64) {
	m := spur.NewMachine(cfg)
	script := workload.NewScript(m, cfg.Seed, spec)
	m.Pager.Runnable = script.Runnable
	gen, sim, simulate := "gen", "access", m.Engine.AccessBatch
	if touch {
		gen, sim, simulate = "touch-gen", "touch", m.Engine.TouchBatch
	}
	buf := make([]trace.Rec, batchRefs)
	var n int64
	for n < cfg.TotalRefs {
		want := min(cfg.TotalRefs-n, batchRefs)
		a := tr.now()
		k := script.NextBatch(buf[:want])
		b := tr.now()
		if k == 0 {
			break
		}
		simulate(buf[:k])
		c := tr.now()
		tr.add(gen, parent, a, b, int64(k))
		tr.add(sim, parent, b, c, int64(k))
		n += int64(k)
	}
	return m.Snapshot(), n
}

// table41Rows summarizes per-repetition results into Table 4.1 rows the
// way spur.Table41 does.
func table41Rows(cells []cell, results [][]spur.Result) []spur.Table41Row {
	index := make(map[cell]int, len(cells))
	for i, c := range cells {
		index[c] = i
	}
	series := func(ci int) (pageIns, elapsed, refFaults, flushes []float64) {
		for _, r := range results[ci] {
			pageIns = append(pageIns, float64(r.Events.PageIns))
			elapsed = append(elapsed, r.ElapsedSeconds)
			refFaults = append(refFaults, float64(r.Events.RefFaults))
			flushes = append(flushes, float64(r.Events.PageFlushes))
		}
		return
	}
	var rows []spur.Table41Row
	for _, wl := range simWorkloads {
		for _, mb := range spur.MemorySizesMB {
			bp, be, _, _ := series(index[cell{wl, mb, spur.RefMISS}])
			baseP, baseE := stats.Summarize(bp).Mean, stats.Summarize(be).Mean
			for _, pol := range spur.RefPolicies {
				p, e, rf, fl := series(index[cell{wl, mb, pol}])
				row := spur.Table41Row{
					Workload: wl, MemMB: mb, Policy: pol,
					PageIns: stats.Summarize(p), Elapsed: stats.Summarize(e),
					RefFaults: stats.Summarize(rf), Flushes: stats.Summarize(fl),
				}
				if baseP > 0 {
					row.RelPageIns = row.PageIns.Mean / baseP
				}
				if baseE > 0 {
					row.RelElapsed = row.Elapsed.Mean / baseE
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

type sweepStage struct{ simStage }

func prepareSweep(sz size, seed uint64) (stage, error) {
	return &sweepStage{simStage{sz: sz, seed: seed}}, nil
}

// sampleOptions spells out SampleOptions' defaults for a stream of refs
// references (128 intervals, 12 phases, warmup and prefix of two
// intervals), so the rebuild uses exactly the driver's plan.
func sampleOptions(refs int64) spur.SampleOptions {
	il := refs / 128
	return spur.SampleOptions{IntervalLen: il, K: 12, Warmup: 2 * il, Prefix: 2 * il}
}

func (s *sweepStage) run(tr *tracer) (opResult, error) {
	if tr != nil {
		return s.rebuild(tr)
	}
	var done []time.Duration
	t0 := time.Now()
	rows, err := spur.MemorySweepSampled(spur.MemorySweepOptions{
		Workloads: simWorkloads, SizesMB: spur.MemorySizesMB, Policies: spur.RefPolicies,
		Refs: s.sz.Refs, Seed: s.seed, Parallel: workers,
		Progress: func(int, int) { done = append(done, time.Since(t0)) },
	}, sampleOptions(s.sz.Refs))
	wall := time.Since(t0)
	if err != nil {
		return opResult{}, err
	}
	rec, err := rowsRecord("sweep-sampled", rows)
	return opResult{wall: wall, records: []record{rec}, layers: progressLayers(done)}, err
}

// rebuild runs the sampled sweep the way spur.MemorySweepSampled does, one
// (workload, repetition) group per job, with a span around each public
// internal/sample call. Its rows must equal the driver's.
func (s *sweepStage) rebuild(tr *tracer) (opResult, error) {
	so := sampleOptions(s.sz.Refs)
	nv := len(spur.MemorySizesMB) * len(spur.RefPolicies)
	rows := make([]spur.SampledRow, 0, len(simWorkloads)*nv)
	for _, wl := range simWorkloads {
		for _, mb := range spur.MemorySizesMB {
			for _, pol := range spur.RefPolicies {
				rows = append(rows, spur.SampledRow{Workload: wl, MemMB: mb, Policy: pol, Reps: make([]sample.Estimate, 1)})
			}
		}
	}
	errs := make([]error, len(simWorkloads))
	root := tr.open("sweep", -1)
	err := parallel.ForEach(len(simWorkloads), parallel.Options{Workers: workers}, func(wi int) {
		spec := specOf(simWorkloads[wi])
		seed := parallel.DeriveSeed(s.seed, sampledSeedSalt, uint64(wi), 0)
		var variants []sample.Variant
		for _, mb := range spur.MemorySizesMB {
			for _, pol := range spur.RefPolicies {
				variants = append(variants, sample.Variant{Name: fmt.Sprintf("%dMB/%s", mb, pol), Cfg: cellConfig(mb, pol)})
			}
		}
		g := tr.open("group", root)
		defer tr.close(g, 0)
		a := tr.now()
		profile := sample.BuildProfile(spec, seed, s.sz.Refs, so.IntervalLen)
		b := tr.now()
		tr.add("profile", g, a, b, s.sz.Refs)
		plan := sample.BuildPlan(profile, so.K, seed, so.Prefix)
		c := tr.now()
		tr.add("plan", g, b, c, 0)
		measured, err := sample.Measure(spec, seed, plan, variants, sample.MeasureOptions{Warmup: so.Warmup})
		d := tr.now()
		tr.add("measure", g, c, d, plan.SimulatedRefs(so.Warmup))
		if err != nil {
			errs[wi] = err
			return
		}
		for vi := range variants {
			rows[wi*nv+vi].Reps[0] = plan.Estimate(measured[vi], variants[vi].Cfg.Timing, so.Warmup)
		}
		tr.add("estimate", g, d, tr.now(), 0)
	})
	tr.close(root, 0)
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		return opResult{}, err
	}
	for i := range rows {
		rows[i].Estimate = rows[i].Reps[0]
		rows[i].Events = sample.EventsFromEstimate(rows[i].Estimate)
	}
	rec, err := rowsRecord("sweep-sampled", rows)
	wall := tr.totals()["sweep"].dur

	// Functional warming (Engine.TouchBatch), which the sweep applies to the
	// gaps between representative intervals inside Measure, timed outside
	// the rebuild over the first group's whole stream on its first variant.
	cfg := cellConfig(spur.MemorySizesMB[0], spur.RefPolicies[0])
	cfg.TotalRefs = s.sz.Refs
	cfg.Seed = parallel.DeriveSeed(s.seed, sampledSeedSalt, 0, 0)
	id := tr.open("touch-run", -1)
	_, n := tracedRun(tr, id, cfg, specOf(simWorkloads[0]), true)
	tr.close(id, n)
	a := tr.totals()
	return opResult{
		wall: wall, records: []record{rec}, rebuilt: true,
		layers: map[string]float64{
			"workload.gen_ns_per_ref": float64(a["touch-gen"].dur) / float64(a["touch-gen"].n),
			"core.touch_ns_per_ref":   float64(a["touch"].dur) / float64(a["touch"].n),
			"sample.profile_s":        a["profile"].dur.Seconds(),
			"sample.plan_s":           a["plan"].dur.Seconds(),
			"sample.measure_s":        a["measure"].dur.Seconds(),
			"sample.estimate_s":       a["estimate"].dur.Seconds(),
			"sample.detailed_refs":    float64(a["measure"].n),
			"parallel.busy_frac":      float64(a["group"].dur) / (float64(wall) * workers),
		},
	}, err
}
