package spur

import (
	"fmt"

	"repro/internal/core"
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
// MISS reference policy) — the counts the Section 3.2 models consume.
func Table33(opts Table33Options) []Table33Row {
	opts.fill()
	type wl struct {
		name core.WorkloadName
		spec func() Spec
	}
	wls := []wl{{core.SLC, SLC}, {core.Workload1, Workload1}}
	n := len(opts.SizesMB)
	// Map fails only on a cancelled Context, and none is passed.
	rows, _ := parallel.Map(len(wls)*n, parallel.Options{}, func(i int) Table33Row {
		w, mb := wls[i/n], opts.SizesMB[i%n]
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(mb)
		cfg.TotalRefs = opts.Refs
		cfg.Seed = opts.Seed
		cfg.Dirty = DirtySPUR
		cfg.Ref = RefMISS
		return Table33Row{Workload: w.name, MemMB: mb, Events: Run(cfg, w.spec()).Events}
	})
	return rows
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
// below about half scale).
func Table35Scaled(seed uint64, refScale float64) []Table35Row {
	if seed == 0 {
		seed = 1
	}
	if refScale <= 0 {
		refScale = 1
	}
	hosts := workload.SpriteHosts()
	// Map fails only on a cancelled Context, and none is passed.
	rows, _ := parallel.Map(len(hosts), parallel.Options{}, func(i int) Table35Row {
		h := hosts[i]
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(h.MemMB)
		cfg.TotalRefs = int64(float64(h.Refs) * refScale)
		cfg.Seed = seed
		res := Run(cfg, h.Spec())
		st := res.Pager
		row := Table35Row{Host: h, PageIns: st.PageIns, PotMod: st.WritablePageOuts, NotMod: st.CleanWritablePageOuts}
		if row.PotMod > 0 {
			row.PctNotMod = 100 * float64(row.NotMod) / float64(row.PotMod)
		}
		if row.PageIns+row.PotMod > 0 {
			row.PctExtraIO = 100 * float64(row.NotMod) / float64(row.PageIns+row.PotMod)
		}
		return row
	})
	return rows
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
