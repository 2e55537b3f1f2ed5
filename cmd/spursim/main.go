// Command spursim runs one workload through the SPUR memory-system
// simulator and reports the performance counters and derived metrics —
// the software equivalent of reading the cache controller's counter
// registers after a prototype run.
//
// Usage:
//
//	spursim -w workload1 -mem 6 -dirty spur -ref miss -refs 20000000
//	spursim -w slc -mem 5 -dirty fault -counters -mode 2
//
// Chaos mode injects deterministic faults and runs hardened (panic
// recovery, continuous invariant audits, optional deadline); a failure is
// reported as a repro bundle and exits nonzero:
//
//	spursim -w slc -mem 5 -refs 2000000 -chaos pagein-io,dirtybit-flip \
//	        -chaos-every 1000 -chaos-seed 7 -audit-every 100000 -artifacts ./failures
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	spur "repro"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("w", "workload1", "workload: workload1, slc, window, or sprite:<host-index 0-5>")
	specFile := flag.String("spec", "", "run a JSON workload spec instead of a named workload")
	dumpSpec := flag.String("dump-spec", "", "write the selected workload's JSON spec to this file and exit")
	mem := flag.Int("mem", 8, "main memory in MB")
	dirty := flag.String("dirty", "SPUR", "dirty-bit policy: MIN, FAULT, FLUSH, SPUR, WRITE, PROT")
	refp := flag.String("ref", "MISS", "reference-bit policy: MISS, REF, NOREF")
	refs := flag.Int64("refs", 20_000_000, "references to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	hw := flag.Bool("counters", false, "also dump the 16 hardware counters")
	mode := flag.Int("mode", 2, "hardware counter mode register (0-3) for -counters")
	chaos := flag.String("chaos", "", "comma-separated fault kinds to inject: counter-wrap, snoop-drop, snoop-delay, pagein-io, dirtybit-flip, line-corrupt")
	chaosEvery := flag.Uint64("chaos-every", 10_000, "inject each fault roughly once per N opportunities")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault-injection seed (0 = exact modular cadence)")
	auditEvery := flag.Int64("audit-every", 0, "audit machine invariants every N references (0 = final audit only)")
	artifacts := flag.String("artifacts", "", "directory for JSON repro bundles of failed runs")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "spursim:", err)
		os.Exit(2)
	}

	cfg := spur.DefaultConfig()
	cfg.MemoryBytes = core.MiB(*mem)
	cfg.TotalRefs = *refs
	cfg.Seed = *seed
	var err error
	if cfg.Dirty, err = core.ParseDirtyPolicy(*dirty); err != nil {
		die(err)
	}
	if cfg.Ref, err = core.ParseRefPolicy(*refp); err != nil {
		die(err)
	}
	if *chaos != "" {
		for _, name := range strings.Split(*chaos, ",") {
			k, err := spur.ParseFaultKind(strings.TrimSpace(name))
			if err != nil {
				die(err)
			}
			cfg.Faults = append(cfg.Faults, spur.FaultPlan{
				Kind: k, Every: *chaosEvery, Seed: *chaosSeed,
			})
		}
	}

	var spec spur.Spec
	switch {
	case *specFile != "":
		f, err := os.Open(*specFile)
		if err != nil {
			die(err)
		}
		spec, err = spur.ReadSpec(f)
		_ = f.Close() // read-only file; Close cannot lose data
		if err != nil {
			die(err)
		}
	case *wl == "workload1":
		spec = spur.Workload1()
	case *wl == "slc":
		spec = spur.SLC()
	case *wl == "window":
		spec = spur.Window()
	case strings.HasPrefix(*wl, "sprite:"):
		var i int
		if _, err := fmt.Sscanf(*wl, "sprite:%d", &i); err != nil || i < 0 || i >= len(workload.SpriteHosts()) {
			die(fmt.Errorf("bad sprite host %q", *wl))
		}
		h := workload.SpriteHosts()[i]
		spec = h.Spec()
		cfg.MemoryBytes = core.MiB(h.MemMB)
	default:
		die(fmt.Errorf("unknown workload %q", *wl))
	}

	if *dumpSpec != "" {
		f, err := os.Create(*dumpSpec)
		if err != nil {
			die(err)
		}
		if err := spur.WriteSpec(f, spec); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s spec to %s\n", spec.Name, *dumpSpec)
		return
	}

	m := spur.NewMachine(cfg)
	if *mode < 0 || *mode >= counters.NumModes {
		die(fmt.Errorf("bad counter mode %d", *mode))
	}
	m.Ctr.SetMode(*mode) // select the event set before the run, as on the chip
	script := workload.NewScript(m, cfg.Seed, spec)
	opts := spur.RunOptions{
		AuditEvery:  *auditEvery,
		Deadline:    *timeout,
		ArtifactDir: *artifacts,
	}
	res, fail := m.RunHardened(script, cfg.TotalRefs, opts)
	ev := res.Events

	fmt.Printf("workload=%s mem=%dMB dirty=%s ref=%s refs=%d seed=%d\n\n",
		spec.Name, *mem, cfg.Dirty, cfg.Ref, res.Refs, cfg.Seed)
	fmt.Printf("references      %12d  (ifetch %d, read %d, write %d)\n", ev.Refs,
		m.Ctr.Count(counters.EvIFetch), m.Ctr.Count(counters.EvRead), m.Ctr.Count(counters.EvWrite))
	fmt.Printf("cache misses    %12d  (%.1f%%)\n", ev.Misses, 100*float64(ev.Misses)/float64(max(ev.Refs, 1)))
	fmt.Printf("N_ds            %12d  necessary dirty faults\n", ev.Nds)
	fmt.Printf("N_zfod          %12d  zero-fill page faults\n", ev.Nzfod)
	fmt.Printf("N_ef            %12d  excess faults (FAULT policy)\n", ev.Nef)
	fmt.Printf("N_dm            %12d  dirty-bit misses (SPUR policy)\n", ev.Ndm)
	fmt.Printf("N_w-hit         %12d  read-then-modified blocks\n", ev.NwHit)
	fmt.Printf("N_w-miss        %12d  write-miss blocks\n", ev.NwMiss)
	fmt.Printf("ref faults      %12d  ref clears %d  page flushes %d\n", ev.RefFaults, ev.RefClears, ev.PageFlushes)
	fmt.Printf("page-ins        %12d  page-outs %d  reclaims %d\n", ev.PageIns, ev.PageOuts, res.Pager.Reclaims)
	fmt.Printf("cycles          %12d  elapsed %.1fs (at %.0fns/cycle)\n",
		res.Cycles, res.ElapsedSeconds, spur.Timing().ProcessorCycleNS)
	fmt.Printf("\nderived: excess/necessary(excl zfod) = %.2f   read-before-write = %.2f   model-predicted = %.2f\n",
		ev.ExcessFractionExcludingZFOD(), ev.ReadBeforeWriteFraction(), ev.PredictedExcessFraction())

	if *hw {
		fmt.Printf("\nhardware counters (mode %d; 32-bit, wrapping):\n", *mode)
		for i := 0; i < counters.HardwareCounters; i++ {
			fmt.Printf("  ctr%-2d %-16s %d\n", i, m.Ctr.HardwareEvent(i), m.Ctr.Hardware(i))
		}
	}

	if m.Inject.Active() {
		fmt.Printf("\nfault injection: %s\n", m.Inject.Summary())
	}
	if fail != nil {
		fmt.Fprintf(os.Stderr, "\nspursim: %v\n", fail)
		if fail.BundlePath != "" {
			fmt.Fprintf(os.Stderr, "spursim: repro bundle written to %s\n", fail.BundlePath)
		}
		os.Exit(1)
	}
}
