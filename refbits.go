package spur

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

// Table41Options parameterises the reference-bit experiment (Table 4.1).
// The zero value reproduces the paper's design at default scale with three
// repetitions. As with MemorySweepOptions, only the experiment knobs shape
// the result — Parallel, Progress and Context change scheduling, not
// numbers — so the spurd daemon serves table 4.1 from its result store
// when the (Refs, Reps, Seed) triple has been computed before.
type Table41Options struct {
	// Refs per run; 0 uses the default reference scale.
	Refs int64
	// Reps is the number of repetitions per data point (the paper ran
	// five, with a randomized experiment design); 0 means 3.
	Reps int
	// Seed drives the run-order randomization; every (cell, repetition)
	// derives its own workload seed from it, so no two cells share an RNG
	// stream.
	Seed uint64
	// SizesMB defaults to the paper's {5, 6, 8}.
	SizesMB []int

	// Parallel bounds concurrent runs (1 = serial; <= 0 means GOMAXPROCS);
	// results are identical at any setting. Progress, when set, is called
	// after each run (serialized). Context cancels the experiment early.
	Parallel int
	Progress func(done, total int)
	Context  context.Context
}

func (o *Table41Options) fill() {
	if o.Refs == 0 {
		o.Refs = DefaultConfig().TotalRefs
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.SizesMB) == 0 {
		o.SizesMB = MemorySizesMB
	}
}

// sweep maps Table 4.1 onto the memory sweep that runs it: both
// workloads, the filled SizesMB, and all three reference-bit policies.
func (o Table41Options) sweep() MemorySweepOptions {
	o.fill()
	return MemorySweepOptions{
		Workloads: []core.WorkloadName{core.SLC, core.Workload1},
		SizesMB:   o.SizesMB,
		Policies:  RefPolicies,
		Refs:      o.Refs,
		Seed:      o.Seed,
		Reps:      o.Reps,
		Parallel:  o.Parallel,
		Progress:  o.Progress,
		Context:   o.Context,
	}
}

// Table41Row is one measured cell of Table 4.1: a workload, memory size and
// reference-bit policy, with page-ins and elapsed time averaged over the
// repetitions and expressed relative to the MISS policy.
type Table41Row struct {
	Workload core.WorkloadName
	MemMB    int
	Policy   RefPolicy

	PageIns   stats.Summary
	Elapsed   stats.Summary // seconds
	RefFaults stats.Summary
	Flushes   stats.Summary

	// RelPageIns and RelElapsed are the ratios to the MISS policy at the
	// same workload and memory size (1.0 for MISS itself).
	RelPageIns float64
	RelElapsed float64
}

// Table41 runs the reference-bit policy comparison: MISS, REF and NOREF on
// both workloads at each memory size, with randomized run order across
// repetitions, reproducing Table 4.1. It is a view of MemorySweep over
// that grid, so each (cell, repetition) runs hardened on its own derived
// workload seed. Table 4.1 summarizes every repetition, so a quarantined
// one (a crash or a failed final audit) makes Table41 panic with its
// reason.
func Table41(opts Table41Options) []Table41Row {
	return table41Rows(MemorySweep(opts.sweep()))
}

// table41Rows views sweep rows as Table 4.1 rows: the sweep's summaries,
// with page-ins and elapsed time relative to the MISS row at the same
// workload and memory size. It panics on a quarantined repetition, which
// the sweep's summaries leave out.
func table41Rows(sweep []MemorySweepRow) []Table41Row {
	miss := func(wl core.WorkloadName, mb int) MemorySweepRow {
		for _, s := range sweep {
			if s.Workload == wl && s.MemMB == mb && s.Policy == RefMISS {
				return s
			}
		}
		return MemorySweepRow{}
	}
	var rows []Table41Row
	for _, s := range sweep {
		for rep, r := range s.Reps {
			if r.Failure != nil {
				panic(fmt.Sprintf("spur: Table 4.1 %s at %d MB under %s, repetition %d: %v",
					s.Workload, s.MemMB, s.Policy, rep, r.Failure))
			}
		}
		row := Table41Row{
			Workload:  s.Workload,
			MemMB:     s.MemMB,
			Policy:    s.Policy,
			PageIns:   s.PageIns,
			Elapsed:   s.Elapsed,
			RefFaults: s.RefFaults,
			Flushes:   s.Flushes,
		}
		base := miss(s.Workload, s.MemMB)
		if base.PageIns.Mean > 0 {
			row.RelPageIns = row.PageIns.Mean / base.PageIns.Mean
		}
		if base.Elapsed.Mean > 0 {
			row.RelElapsed = row.Elapsed.Mean / base.Elapsed.Mean
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable41 renders measured rows in the paper's Table 4.1 layout, with
// 95% confidence half-widths next to the repetition means; with paper=true
// each policy row carries the published values alongside.
func RenderTable41(rows []Table41Row, paper bool) *report.Table {
	t := &report.Table{
		Title: "Table 4.1: Reference Bit Results",
		Header: []string{"Workload", "Memory(MB)", "Policy",
			"Page-Ins", "±95%", "(rel)", "Elapsed(s)", "±95%", "(rel)", "paper pg-ins", "paper elapsed"},
	}
	for _, r := range rows {
		pp, pe := "", ""
		if paper {
			if p := paperRow41(r.Workload, r.MemMB, r.Policy); p != nil {
				pp = fmt.Sprintf("%d (%d%%)", p.PageIns, p.PageInsPct)
				pe = fmt.Sprintf("%d (%d%%)", p.Elapsed, p.ElapsedPct)
			}
		}
		t.Add(string(r.Workload), r.MemMB, r.Policy.String(),
			fmt.Sprintf("%.0f", r.PageIns.Mean), "±"+report.Float(r.PageIns.CI95()),
			report.Pct(r.RelPageIns),
			fmt.Sprintf("%.0f", r.Elapsed.Mean), "±"+report.Float(r.Elapsed.CI95()),
			report.Pct(r.RelElapsed),
			pp, pe)
	}
	return t
}

func paperRow41(w core.WorkloadName, mb int, pol RefPolicy) *core.PaperRow41 {
	for i := range core.PaperTable41 {
		r := &core.PaperTable41[i]
		if r.Workload == w && r.MemMB == mb && r.Policy == pol {
			return r
		}
	}
	return nil
}
