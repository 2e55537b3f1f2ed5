// Command tracegen generates, stores, and inspects reference traces.
//
// The paper could not use trace-driven simulation — observing enough paging
// needed longer traces than 1989 could store. Today the same streams fit in
// a file: tracegen captures a workload's reference stream in the trace
// format of internal/trace, prints summaries, and can replay a stored trace
// through the simulator.
//
// Usage:
//
//	tracegen -w slc -refs 1000000 -o slc.trc      # generate and store
//	tracegen -i slc.trc                           # summarize a trace
//	tracegen -i slc.trc -replay -mem 6            # replay through the machine
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	spur "repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("w", "slc", "workload to generate: workload1 or slc")
	refs := flag.Int64("refs", 1_000_000, "references to generate")
	seed := flag.Uint64("seed", 1, "workload seed")
	out := flag.String("o", "", "write the trace to this file")
	in := flag.String("i", "", "read and summarize a trace file instead of generating")
	replay := flag.Bool("replay", false, "with -i: replay the trace through the simulator")
	mem := flag.Int("mem", 8, "memory (MB) for -replay")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			die(err)
		}
		defer f.Close()
		r := trace.NewReader(f)
		sum := trace.NewSummary()
		cfg := spur.DefaultConfig()
		cfg.MemoryBytes = core.MiB(*mem)
		m := spur.NewMachine(cfg)
		// The trace carries addresses, not the producing run's region
		// bookkeeping: replay auto-registers pages on fault.
		m.Pager.AutoRegister = true
		trace.Pump(r, make([]trace.Rec, trace.BatchSize), math.MaxInt64, 0, func(b []trace.Rec) bool {
			for _, rec := range b {
				sum.Add(rec)
			}
			if *replay {
				m.Engine.AccessBatch(b)
			}
			return true
		})
		if err := r.Err(); err != nil {
			die(err)
		}
		fmt.Println(sum)
		if *replay {
			res := m.Snapshot()
			fmt.Printf("replay: misses=%d N_ds=%d page-ins=%d cycles=%d\n",
				res.Events.Misses, res.Events.Nds, res.Events.PageIns, res.Cycles)
		}
		return
	}

	var spec spur.Spec
	switch *wl {
	case "workload1":
		spec = spur.Workload1()
	case "slc":
		spec = spur.SLC()
	default:
		die(fmt.Errorf("unknown workload %q", *wl))
	}

	// Capture the stream by running the generator against a machine (the
	// generators react to the machine's paging, so a machine must drive
	// them; the trace records what the processor issued).
	cfg := spur.DefaultConfig()
	cfg.Seed = *seed
	cfg.TotalRefs = *refs
	m := spur.NewMachine(cfg)
	script := workload.NewScript(m, cfg.Seed, spec)

	var w *trace.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = trace.NewWriter(f)
	}
	sum := trace.NewSummary()
	if err := capture(m, script, *refs, w, sum); err != nil {
		die(err)
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", w.Count(), *out)
	}
	fmt.Println(sum)
}

// capture drives the generator in batches, recording each reference before
// replaying it into the machine. NextBatch cuts the stream at scheduler
// decision points, so every batch is safe to record and then replay: region
// lifecycle events that could remap the recorded addresses happen only
// between batches. The stream is bit-for-bit what the per-reference path
// produces.
func capture(m *machine.Machine, script *workload.Script, refs int64, w *trace.Writer, sum *trace.Summary) error {
	var err error
	trace.Pump(script, make([]trace.Rec, trace.BatchSize), refs, 0, func(b []trace.Rec) bool {
		for _, rec := range b {
			sum.Add(rec)
			if w != nil {
				if err = w.Write(rec); err != nil {
					return false
				}
			}
		}
		m.Engine.AccessBatch(b)
		return true
	})
	return err
}
