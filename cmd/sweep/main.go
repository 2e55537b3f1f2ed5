// Command sweep runs the paper's closing question as an experiment: how do
// the reference-bit policies fare as main memory keeps growing past the
// paper's 8 MB? It prints page-in curves per policy (and optionally CSV),
// the study the authors say they were "conducting further studies" toward.
//
// Runs go through the bounded parallel engine: -par controls concurrency,
// -reps the repetitions per cell (the paper ran five, in randomized order).
// Output is byte-identical at any -par for the same seed.
//
// With -remote, the sweep is served by a spurd daemon instead of computed
// locally: the request is answered from the daemon's content-addressed
// result store when an identical sweep has run before, and the output is
// byte-identical to the local run either way.
//
// With -store, every completed run (with -sample, every sampled workload
// and repetition group) is kept in a result store directory as the sweep
// progresses; after a crash (or SIGKILL), rerunning the same command
// recomputes only the missing ones and produces byte-identical output to an
// uninterrupted run. Any number of sweeps, exact and sampled, share one
// store.
//
// Usage:
//
//	sweep                      # both workloads, 4-16 MB, all policies
//	sweep -par 8 -reps 5       # the paper's design, 8 runs at a time
//	sweep -w slc -refs 4000000 # quicker
//	sweep -csv > sweep.csv     # machine-readable, with mean/CI95 columns
//	sweep -remote http://127.0.0.1:7421 -csv   # served (and memoized) by spurd
//	sweep -store runs -csv                     # keep runs; a rerun resumes
//
// With -sample, the sweep is estimated by representative-interval sampling
// instead of simulated exactly: the stream is profiled into intervals,
// clustered into phases, and only one warmed interval per phase is
// simulated. The output is CSV with projected totals and CI95 half-width
// columns. -validate-sample runs the estimator head-to-head against full
// simulation and exits non-zero when any tracked metric misses its bound.
//
//	sweep -sample -refs 1000000000 -csv        # paper-scale projection
//	sweep -validate-sample -validate-report r.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	spur "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/pkg/client"
)

func main() {
	wl := flag.String("w", "all", "workload: workload1, slc, all")
	refs := flag.Int64("refs", 8_000_000, "references per run")
	seed := flag.Uint64("seed", 1, "experiment seed (per-run seeds are derived from it)")
	reps := flag.Int("reps", 1, "repetitions per cell (the paper ran 5)")
	sizes := flag.String("sizes", "", "comma-separated memory sizes in MB (default 4,5,6,7,8,10,12,16)")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "concurrent runs (1 = serial)")
	progress := flag.Bool("progress", false, "report run completion on stderr")
	csv := flag.Bool("csv", false, "emit CSV instead of charts")
	remote := flag.String("remote", "", "spurd base URL; the sweep is served (and memoized) by the daemon")
	store := flag.String("store", "", "result store directory: finished runs are kept there, and a rerun computes only the missing ones")
	sampled := flag.Bool("sample", false, "estimate by representative-interval sampling instead of exact simulation (CSV output)")
	intervals := flag.Int("intervals", 0, "with -sample: profiling interval count (default 128)")
	intervalLen := flag.Int64("interval-len", 0, "with -sample: interval length in references (overrides -intervals)")
	warmup := flag.Int64("warmup", 0, "with -sample: cache-warming references before each representative interval (default 2x interval)")
	validate := flag.Bool("validate-sample", false, "run the sampling estimator against full simulation and exit 1 on any bound violation")
	validateReport := flag.String("validate-report", "", "with -validate-sample: write the per-metric check report as JSON to this file")
	flag.Parse()

	// Validate before anything runs: a zero or negative count would
	// otherwise misbehave deep inside the experiment engine.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		os.Exit(2)
	}
	if err := faultinject.ArmCrashFromEnv(); err != nil {
		usage("%v", err)
	}
	if *reps < 1 {
		usage("-reps must be at least 1 (got %d)", *reps)
	}
	if *par < 1 {
		usage("-par must be at least 1 (got %d)", *par)
	}
	if *refs < 1 {
		usage("-refs must be at least 1 (got %d)", *refs)
	}
	if *store != "" && *remote != "" {
		usage("-store keeps local runs; the daemon keeps its own store")
	}
	if *store != "" && *validate {
		usage("-store keeps sweep runs; -validate-sample stores nothing")
	}
	if !*sampled && !*validate && (*intervals != 0 || *intervalLen != 0 || *warmup != 0) {
		usage("-intervals/-interval-len/-warmup require -sample or -validate-sample")
	}
	if *intervals < 0 || *intervalLen < 0 || *warmup < 0 {
		usage("sampling parameters must be non-negative")
	}
	if *validateReport != "" && !*validate {
		usage("-validate-report requires -validate-sample")
	}
	if *validate && *remote != "" {
		usage("-validate-sample runs locally: it needs the sampled and full pipelines side by side")
	}

	var sizesMB []int
	if *sizes != "" {
		for _, f := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || mb < 1 {
				usage("bad -sizes entry %q", f)
			}
			sizesMB = append(sizesMB, mb)
		}
	}

	var workloads []core.WorkloadName
	switch *wl {
	case "workload1":
		workloads = []core.WorkloadName{core.Workload1}
	case "slc":
		workloads = []core.WorkloadName{core.SLC}
	case "all":
	default:
		usage("unknown workload %q", *wl)
	}

	so := spur.SampleOptions{Intervals: *intervals, IntervalLen: *intervalLen, Warmup: *warmup}

	if *validate {
		// -refs keeps its own meaning here: unset, the validation runs at
		// its acceptance scale (10M refs), not the sweep default.
		refsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "refs" {
				refsSet = true
			}
		})
		vrefs := int64(0)
		if refsSet {
			vrefs = *refs
		}
		runValidate(vrefs, *seed, sizesMB, workloads, so, *validateReport)
		return
	}

	if *remote != "" {
		runRemote(*remote, workloads, sizesMB, *refs, *seed, *reps, *csv,
			*sampled, *intervals, *intervalLen, *warmup)
		return
	}

	opts := spur.MemorySweepOptions{
		Refs: *refs, Seed: *seed, Reps: *reps, Parallel: *par,
		Workloads: workloads, SizesMB: sizesMB,
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d runs\r", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *sampled {
		fmt.Fprintf(os.Stderr, "sampling memory sizes (%d reps/cell, %d at a time)...\n", *reps, *par)
		var rows []spur.SampledRow
		var err error
		if *store != "" {
			rows, err = spur.MemorySweepSampledStored(opts, so, *store)
		} else {
			rows, err = spur.MemorySweepSampled(opts, so)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(spur.SampledSweepCSV(rows))
		return
	}

	fmt.Fprintf(os.Stderr, "sweeping memory sizes (%d reps/cell, %d at a time)...\n", *reps, *par)
	var rows []spur.MemorySweepRow
	if *store != "" {
		var err error
		rows, err = spur.MemorySweepStored(opts, *store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
	} else {
		rows = spur.MemorySweep(opts)
	}
	if *csv {
		fmt.Print(spur.MemorySweepCSV(rows))
		return
	}
	seen := map[core.WorkloadName]bool{}
	for _, r := range rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			fmt.Println(spur.MemorySweepChart(rows, r.Workload))
		}
	}
	printPrediction()
}

// runValidate is the -validate-sample mode: the estimator head-to-head
// against full simulation on the same stream seeds, with a JSON report for
// CI and a non-zero exit when any metric misses its bound.
func runValidate(refs int64, seed uint64, sizesMB []int, workloads []core.WorkloadName,
	so spur.SampleOptions, reportPath string) {

	vo := spur.ValidateOptions{
		Refs: refs, Seed: seed, SizesMB: sizesMB, Workloads: workloads, Sample: so,
	}
	fmt.Fprintln(os.Stderr, "sweep: validating sampled estimates against full simulation...")
	rep, err := spur.ValidateSampling(vo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(reportPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: writing %s: %v\n", reportPath, err)
			os.Exit(1)
		}
	}
	fails := rep.Failures()
	fmt.Printf("validated %d checks at %d refs (interval %d, k %d, warmup %d, prefix %d): %d failed\n",
		len(rep.Checks), rep.Refs, rep.IntervalLen, rep.K, rep.Warmup, rep.Prefix, len(fails))
	for _, c := range fails {
		bound := fmt.Sprintf("CI95 %.3g", c.CI95)
		if c.Bound > 0 {
			bound = fmt.Sprintf("bound %.3g", c.Bound)
		}
		fmt.Printf("FAIL %s %dMB %s %s: est %.6g vs full %.6g (rel err %.4f, %s)\n",
			c.Workload, c.MemMB, c.Policy, c.Metric, c.Est, c.Full, c.RelErr, bound)
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

// runRemote serves the sweep through a spurd daemon. The daemon renders
// with the same code paths, so the bytes match a local run exactly.
func runRemote(base string, workloads []core.WorkloadName, sizesMB []int, refs int64, seed uint64, reps int, csv bool,
	sampled bool, intervals int, intervalLen, warmup int64) {
	req := client.SweepRequest{SizesMB: sizesMB, Refs: refs, Seed: seed, Reps: reps}
	for _, w := range workloads {
		req.Workloads = append(req.Workloads, string(w))
	}
	if sampled {
		req.Sample = true
		req.Intervals, req.IntervalLen, req.Warmup = intervals, intervalLen, warmup
	} else if !csv {
		req.Format = client.FormatChart
	}
	body, meta, err := client.New(base).Sweep(context.Background(), req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	from := "computed"
	if meta.Cached {
		from = "served from the result store"
	}
	fmt.Fprintf(os.Stderr, "sweep: remote %s (%s, key %.12s...)\n", base, from, meta.Key)
	fmt.Print(string(body))
	if !csv && !sampled {
		printPrediction()
	}
}

func printPrediction() {
	fmt.Println("The paper's prediction: reference bits' benefit declines with memory and")
	fmt.Println("may become a hindrance — the curves converge as paging disappears, leaving")
	fmt.Println("only MISS/REF's maintenance overhead.")
}
