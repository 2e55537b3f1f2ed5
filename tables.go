package spur

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/workload"
)

// Table21 renders the system configuration (Table 2.1).
func Table21() *report.Table {
	tp := Timing()
	cfg := DefaultConfig()
	t := &report.Table{Title: "Table 2.1: SPUR System Configuration", Header: []string{"Parameter", "Value"}}
	t.Add("Cache Size", fmt.Sprintf("%d Kbytes", cfg.CacheBytes>>10))
	t.Add("Associativity", "Direct Mapped")
	t.Add("Block Size", "32 bytes")
	t.Add("Page Size", "4 Kbytes")
	t.Add("Instruction Buffer", "Disabled")
	t.Add("Processor cycle time", fmt.Sprintf("%.0fns", tp.ProcessorCycleNS))
	t.Add("Backplane cycle time", fmt.Sprintf("%.0fns", tp.BackplaneCycleNS))
	t.Add("Time to first word", fmt.Sprintf("%d cycles", tp.MemFirstWord))
	t.Add("Time to next word", fmt.Sprintf("%d cycle", tp.MemNextWord))
	return t
}

// Table31 renders the dirty-bit alternatives taxonomy (Table 3.1).
func Table31() *report.Table {
	t := &report.Table{Title: "Table 3.1: Dirty Bit Implementation Alternatives", Header: []string{"Policy", "Description"}}
	for _, p := range DirtyPolicies {
		t.Add(p.String(), p.Describe())
	}
	return t
}

// Table32 renders the time parameters (Table 3.2).
func Table32() *report.Table {
	tp := Timing()
	t := &report.Table{Title: "Table 3.2: Time Parameters", Header: []string{"Parameter", "Cycle Count", "Description"}}
	t.Add("t_ds", tp.FaultCycles, "Time for handler to set dirty bit")
	t.Add("t_flush", tp.PageFlushCycles, "Time to flush page from cache")
	t.Add("t_dm", tp.DirtyMissCycles, "Time to update cached dirty bit")
	t.Add("t_dc", tp.DirtyCheckCycles, "Time to check PTE dirty bit")
	return t
}

// Table33Options parameterises the event-frequency experiment.
type Table33Options struct {
	// Refs per run; 0 uses the default reference scale.
	Refs int64
	// Seed for the workload generators.
	Seed uint64
	// SizesMB defaults to the paper's {5, 6, 8}.
	SizesMB []int
}

func (o *Table33Options) fill() {
	if o.Refs == 0 {
		o.Refs = DefaultConfig().TotalRefs
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.SizesMB) == 0 {
		o.SizesMB = MemorySizesMB
	}
}

// Table33Row is one measured row of Table 3.3.
type Table33Row struct {
	Workload core.WorkloadName
	MemMB    int
	Events   Events
}

// Table33 measures the event frequencies of Table 3.3: both workloads at
// each memory size, under the prototype's configuration (SPUR dirty policy,
// MISS reference policy) — the counts the Section 3.2 models consume. A
// quarantined run makes it panic with the run's reason.
func Table33(opts Table33Options) []Table33Row { return alone(table33Cells(opts)) }

// table33Cells returns Table 3.3's cells and its rows from their runs.
func table33Cells(opts Table33Options) ([]cell, func([]cellRun) []Table33Row) {
	opts.fill()
	var cells []cell
	for _, spec := range []func() Spec{SLC, Workload1} {
		for _, mb := range opts.SizesMB {
			cfg := DefaultConfig()
			cfg.MemoryBytes = core.MiB(mb)
			cfg.TotalRefs = opts.Refs
			cfg.Seed = opts.Seed
			cfg.Dirty = DirtySPUR
			cfg.Ref = RefMISS
			cells = append(cells, cell{spec: spec(), cfg: cfg})
		}
	}
	return cells, func(runs []cellRun) []Table33Row {
		rows := make([]Table33Row, len(cells))
		for i, c := range cells {
			rows[i] = Table33Row{Workload: core.WorkloadName(c.spec.Name), MemMB: c.cfg.MemoryBytes >> 20, Events: runs[i].Result.Events}
		}
		return rows
	}
}

// RenderTable33 renders measured rows in the paper's Table 3.3 layout; with
// paper=true each row is followed by the published values.
func RenderTable33(rows []Table33Row, paper bool) *report.Table {
	t := &report.Table{
		Title: "Table 3.3: Event Frequencies",
		Header: []string{"Workload", "Size(MB)", "N_ds", "N_zfod", "N_ef=N_dm",
			"N_w-hit", "N_w-miss", "t_elapsed(s)"},
	}
	for _, r := range rows {
		ev := r.Events
		t.Add(string(r.Workload), r.MemMB, ev.Nds, ev.Nzfod, ev.Nstale(),
			ev.NwHit, ev.NwMiss, fmt.Sprintf("%.0f", ev.ElapsedSeconds))
		if paper {
			if p := paperRow33(r.Workload, r.MemMB); p != nil {
				t.Add("  (paper)", "", p.Nds, p.Nzfod, p.Nef,
					fmt.Sprintf("%.3gM", p.NwHitM), fmt.Sprintf("%.3gM", p.NwMissM), p.Elapsed)
			}
		}
	}
	t.Note("N_w-hit / N_w-miss are raw block counts here, millions in the paper (§ scaling, DESIGN.md).")
	return t
}

func paperRow33(w core.WorkloadName, mb int) *core.PaperRow33 {
	for i := range core.PaperTable33 {
		if core.PaperTable33[i].Workload == w && core.PaperTable33[i].MemMB == mb {
			return &core.PaperTable33[i]
		}
	}
	return nil
}

// Table34 evaluates the Section 3.2 overhead models over measured Table 3.3
// rows, producing the paper's Table 3.4 (millions of cycles, relative to
// MIN, zero-fills excluded).
func Table34(rows []Table33Row) *report.Table {
	tp := Timing()
	t := &report.Table{
		Title:  "Table 3.4: Overhead of Dirty Bit Alternatives (Excluding Zero-Fills)",
		Header: []string{"Workload", "Size(MB)", "MIN", "FAULT", "FLUSH", "SPUR", "WRITE"},
	}
	for _, r := range rows {
		row := core.OverheadTable(r.Events, tp)
		cells := []any{string(r.Workload), r.MemMB}
		for _, p := range DirtyPolicies {
			cells = append(cells, report.MCycles(row.Cycles[p])+" "+report.Ratio(row.Relative[p]))
		}
		t.Add(cells...)
	}
	t.Note("cells: millions of cycles (relative to MIN)")
	return t
}

// PaperTable34 renders the published Table 3.4 for comparison.
func PaperTable34() *report.Table {
	t := &report.Table{
		Title:  "Table 3.4 (paper): Overhead of Dirty Bit Alternatives",
		Header: []string{"Workload", "Size(MB)", "MIN", "FAULT", "FLUSH", "SPUR", "WRITE"},
	}
	for _, r := range core.PaperTable34 {
		cells := []any{string(r.Workload), r.MemMB}
		for _, p := range DirtyPolicies {
			cells = append(cells, fmt.Sprintf("%.3g %s", r.MCycles[p], report.Ratio(r.MCycles[p]/r.MCycles[DirtyMIN])))
		}
		t.Add(cells...)
	}
	return t
}

// Table35Row is one measured row of Table 3.5.
type Table35Row struct {
	Host       workload.SpriteHost
	PageIns    uint64
	PotMod     uint64
	NotMod     uint64
	PctNotMod  float64
	PctExtraIO float64
}

// Table35 runs the six Sprite development host workloads and measures their
// page-out cleanliness (Table 3.5).
func Table35(seed uint64) []Table35Row { return Table35Scaled(seed, 1.0) }

// Table35Scaled runs the hosts with their reference budgets scaled by
// refScale, for quick looks and benchmarks (page-out statistics get noisy
// below about half scale). A quarantined run makes it panic with the run's
// reason.
func Table35Scaled(seed uint64, refScale float64) []Table35Row {
	return alone(table35Cells(seed, refScale))
}

// table35Cells returns Table 3.5's cells and its rows from their runs.
func table35Cells(seed uint64, refScale float64) ([]cell, func([]cellRun) []Table35Row) {
	if seed == 0 {
		seed = 1
	}
	if refScale <= 0 {
		refScale = 1
	}
	hosts := workload.SpriteHosts()
	cells := make([]cell, len(hosts))
	for i, h := range hosts {
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(h.MemMB)
		cfg.TotalRefs = int64(float64(h.Refs) * refScale)
		cfg.Seed = seed
		cells[i] = cell{spec: h.Spec(), cfg: cfg}
	}
	return cells, func(runs []cellRun) []Table35Row {
		rows := make([]Table35Row, len(hosts))
		for i, h := range hosts {
			st := runs[i].Result.Pager
			row := Table35Row{Host: h, PageIns: st.PageIns, PotMod: st.WritablePageOuts, NotMod: st.CleanWritablePageOuts}
			if row.PotMod > 0 {
				row.PctNotMod = 100 * float64(row.NotMod) / float64(row.PotMod)
			}
			if row.PageIns+row.PotMod > 0 {
				row.PctExtraIO = 100 * float64(row.NotMod) / float64(row.PageIns+row.PotMod)
			}
			rows[i] = row
		}
		return rows
	}
}

// RenderTable35 renders measured rows in the paper's Table 3.5 layout.
func RenderTable35(rows []Table35Row, paper bool) *report.Table {
	t := &report.Table{
		Title: "Table 3.5: Page-Out Results from Sprite Development Systems",
		Header: []string{"Hostname", "Memory", "Uptime(h)", "Page-Ins",
			"Pot. Modified", "Not Modified", "% Not Modified", "% Add'l Paging I/O"},
	}
	for i, r := range rows {
		t.Add(r.Host.Name, fmt.Sprintf("%d MB", r.Host.MemMB), r.Host.UptimeHours,
			r.PageIns, r.PotMod, r.NotMod,
			fmt.Sprintf("%.0f%%", r.PctNotMod), fmt.Sprintf("%.1f%%", r.PctExtraIO))
		if paper && i < len(core.PaperTable35) {
			p := core.PaperTable35[i]
			t.Add("  (paper)", "", "", p.PageIns, p.PotMod, p.NotMod,
				fmt.Sprintf("%.0f%%", p.PctNotMod()), fmt.Sprintf("%.1f%%", p.PctExtraIO()))
		}
	}
	return t
}

// TableDocs computes artifact id as report.Docs: a table ("2.1" to "4.1"),
// a figure ("f3.1", "f3.2"), the extension sweeps ("ext"), "all" of them
// with the claims last, or the "claims" alone, which read every table.
// Refs applies to Tables 3.3 and 4.1, the cache sweep and the claims'
// dirty-policy runs, Reps and SizesMB to Table 4.1, and the rest of opts
// to every table; paper adds the published values. Table 3.5's hosts keep
// their own lengths: spurd serves that table, and its bytes may change
// only with a spur.Version bump. With dir set, every run is memoized in
// the result store there, so a rerun computes only the runs it lacks. A
// quarantined run stops the computation with its reason once its siblings
// finish.
func TableDocs(id string, opts Table41Options, paper bool, dir string) ([]report.Doc, error) {
	d := driver{par: parallel.Options{Workers: opts.Parallel, Context: opts.Context, Progress: opts.Progress}}
	if dir != "" {
		var err error
		if d.st, err = expstore.Open(dir, expstore.Options{}); err != nil {
			return nil, err
		}
	}
	return d.docs(id, opts, paper)
}

func (d driver) docs(id string, o Table41Options, paper bool) ([]report.Doc, error) {
	need := func(name string) bool { return id == "all" || id == "claims" || id == name }
	// The tables' cells run as one list; each builds its rows from its slice.
	var cr ClaimRows
	var cells []cell
	var builds []func([]cellRun)
	queue := func(cs []cell, build func([]cellRun)) {
		lo, hi := len(cells), len(cells)+len(cs)
		cells = append(cells, cs...)
		builds = append(builds, func(runs []cellRun) { build(runs[lo:hi]) })
	}
	if need("3.3") || need("3.4") || need("ext") {
		t33 := Table33Options{Refs: o.Refs, Seed: o.Seed}
		if !need("3.3") && !need("3.4") {
			t33.SizesMB = []int{5} // the fault-handler sweep reads only SLC at 5 MB
		}
		cs, rows := table33Cells(t33)
		queue(cs, func(r []cellRun) { cr.T33 = rows(r) })
	}
	if need("3.5") {
		cs, rows := table35Cells(o.Seed, 1)
		queue(cs, func(r []cellRun) { cr.T35 = rows(r) })
	}
	if need("4.1") {
		cs, rows := memorySweepCells(o.sweep())
		queue(cs, func(r []cellRun) { cr.T41 = table41Rows(rows(r)) })
	}
	if need("ext") {
		cs, rows := cacheSweepCells(CacheSweepOptions{Refs: o.Refs, Seed: o.Seed})
		queue(cs, func(r []cellRun) { cr.Cache = rows(r) })
	}
	if need("claims") {
		cs, rows := dirtySweepCells(o.Refs, o.Seed)
		queue(cs, func(r []cellRun) { cr.Dirty = rows(r) })
	}
	runs, err := d.table(cells)
	if err != nil {
		return nil, err
	}
	for _, build := range builds {
		build(runs)
	}
	if need("ext") {
		cr.Tds = FaultHandlerSweep(cr.T33[0].Events)
	}

	var docs []report.Doc
	add := func(name string, doc func() report.Doc) {
		if id == "all" || id == name {
			docs = append(docs, doc())
		}
	}
	add("2.1", func() report.Doc { return Table21().Doc() })
	add("3.1", func() report.Doc { return Table31().Doc() })
	add("3.2", func() report.Doc { return Table32().Doc() })
	add("f3.1", func() report.Doc { return report.TextDoc("Figure 3.1", Figure31()) })
	add("f3.2", func() report.Doc { return report.TextDoc("Figure 3.2", Figure32()) })
	add("3.3", func() report.Doc { return RenderTable33(cr.T33, paper).Doc() })
	add("3.4", func() report.Doc { return Table34(cr.T33).Doc() })
	if paper {
		add("3.4", func() report.Doc { return PaperTable34().Doc() })
	}
	add("3.5", func() report.Doc { return RenderTable35(cr.T35, paper).Doc() })
	add("4.1", func() report.Doc { return RenderTable41(cr.T41, paper).Doc() })
	add("ext", func() report.Doc { return RenderCacheSweep(cr.Cache).Doc() })
	add("ext", func() report.Doc { return RenderFaultHandlerSweep(cr.Tds).Doc() })
	add("claims", func() report.Doc { return RenderClaims(CheckClaims(cr)).Doc() })
	if len(docs) == 0 {
		return nil, fmt.Errorf("spur: unknown table %q", id)
	}
	return docs, nil
}
