package spur

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// table41Model is Table 4.1's algorithm spelled out cell by cell: an
// unhardened Run per (cell, repetition) on parallel.DeriveSeed(seed, cell,
// rep), cells in (workload, size, policy) order, summaries over every
// repetition, and page-ins and elapsed time relative to the MISS cell at
// the same workload and size.
func table41Model(opts Table41Options) []Table41Row {
	opts.fill()
	type cell struct {
		wl  core.WorkloadName
		mb  int
		pol RefPolicy
	}
	var cells []cell
	for _, wl := range []core.WorkloadName{core.SLC, core.Workload1} {
		for _, mb := range opts.SizesMB {
			for _, pol := range RefPolicies {
				cells = append(cells, cell{wl, mb, pol})
			}
		}
	}
	results, _ := parallel.Map(len(cells)*opts.Reps, parallel.Options{}, func(i int) Result {
		ci, rep := i/opts.Reps, i%opts.Reps
		c := cells[ci]
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(c.mb)
		cfg.TotalRefs = opts.Refs
		cfg.Seed = parallel.DeriveSeed(opts.Seed, uint64(ci), uint64(rep))
		cfg.Ref = c.pol
		spec := SLC()
		if c.wl == core.Workload1 {
			spec = Workload1()
		}
		return Run(cfg, spec)
	})
	summarize := func(ci int) (pageIns, elapsed, refFaults, flushes stats.Summary) {
		var p, e, rf, fl []float64
		for _, res := range results[ci*opts.Reps : (ci+1)*opts.Reps] {
			p = append(p, float64(res.Events.PageIns))
			e = append(e, res.ElapsedSeconds)
			rf = append(rf, float64(res.Events.RefFaults))
			fl = append(fl, float64(res.Events.PageFlushes))
		}
		return stats.Summarize(p), stats.Summarize(e), stats.Summarize(rf), stats.Summarize(fl)
	}
	var rows []Table41Row
	for ci, c := range cells {
		row := Table41Row{Workload: c.wl, MemMB: c.mb, Policy: c.pol}
		row.PageIns, row.Elapsed, row.RefFaults, row.Flushes = summarize(ci)
		baseP, baseE, _, _ := summarize(slices.Index(cells, cell{c.wl, c.mb, RefMISS}))
		if baseP.Mean > 0 {
			row.RelPageIns = row.PageIns.Mean / baseP.Mean
		}
		if baseE.Mean > 0 {
			row.RelElapsed = row.Elapsed.Mean / baseE.Mean
		}
		rows = append(rows, row)
	}
	return rows
}

// TestTable41MatchesCellModel: Table 4.1 as a view of the hardened memory
// sweep gives exactly the rows of the per-cell algorithm. The 3 MB size
// keeps the page daemon busy, so reference-bit clears and flushes differ
// across policies.
func TestTable41MatchesCellModel(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		opts := Table41Options{Refs: 300_000, Reps: 3, Seed: seed, SizesMB: []int{3, 5, 8}}
		got, want := Table41(opts), table41Model(opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Table41 rows differ from the per-cell model:\n%+v\nvs\n%+v", seed, got, want)
		}
	}
}

// TestTable41RowsFromSweep checks the row transform on synthetic sweep rows:
// summaries are copied, the relative columns divide by the MISS row at the
// same workload and size, a zero MISS mean leaves them at 0, and a
// quarantined repetition panics with its reason.
func TestTable41RowsFromSweep(t *testing.T) {
	sum := func(mean float64) stats.Summary { return stats.Summary{N: 2, Mean: mean, StdDev: 1} }
	row := func(wl core.WorkloadName, mb int, pol RefPolicy, pageIns, elapsed float64) MemorySweepRow {
		return MemorySweepRow{
			Workload: wl, MemMB: mb, Policy: pol, Reps: make([]SweepRep, 2),
			PageIns: sum(pageIns), Elapsed: sum(elapsed), RefFaults: sum(3), Flushes: sum(4),
		}
	}
	sweep := []MemorySweepRow{
		row(core.SLC, 5, RefMISS, 200, 10),
		row(core.SLC, 5, RefTRUE, 150, 12),
		row(core.SLC, 5, RefNONE, 400, 20),
		row(core.Workload1, 5, RefMISS, 0, 0),
		row(core.Workload1, 5, RefTRUE, 100, 8),
	}
	rows := table41Rows(sweep)
	want := []struct{ relP, relE float64 }{{1, 1}, {0.75, 1.2}, {2, 2}, {0, 0}, {0, 0}}
	if len(rows) != len(want) {
		t.Fatalf("%d rows from %d sweep rows", len(rows), len(sweep))
	}
	for i, r := range rows {
		s := sweep[i]
		if r.Workload != s.Workload || r.MemMB != s.MemMB || r.Policy != s.Policy ||
			r.PageIns != s.PageIns || r.Elapsed != s.Elapsed || r.RefFaults != s.RefFaults || r.Flushes != s.Flushes {
			t.Errorf("row %d does not copy its sweep row: %+v vs %+v", i, r, s)
		}
		if r.RelPageIns != want[i].relP || r.RelElapsed != want[i].relE {
			t.Errorf("row %d (%s %v): relative (%g, %g), want (%g, %g)",
				i, r.Workload, r.Policy, r.RelPageIns, r.RelElapsed, want[i].relP, want[i].relE)
		}
	}

	const reason = "line 681: tag does not match its page"
	sweep[2].Reps[1].Failure = &RunFailure{Kind: FailAudit, Reason: reason, Refs: 6000}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, reason) || !strings.Contains(msg, "repetition 1") {
			t.Errorf("quarantined repetition: panic %q does not carry its reason and repetition", msg)
		}
	}()
	table41Rows(sweep)
	t.Error("a quarantined repetition did not panic")
}
