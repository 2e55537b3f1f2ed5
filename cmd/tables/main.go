// Command tables regenerates every table and figure of the paper's
// evaluation section and prints them next to the published values.
//
// Usage:
//
//	tables                        # everything, the claims last (about a minute)
//	tables -t 3.3                 # one table: 2.1, 3.1, 3.2, 3.3, 3.4, 3.5, 4.1
//	tables -t f3.1                # a figure: f3.1, f3.2
//	tables -t claims              # the paper's claims checked, tables not printed
//	tables -refs 4000000 -reps 1  # quicker, coarser runs
//	tables -json                  # machine-readable report.Doc JSON
//	tables -remote http://127.0.0.1:7421 -t 3.3   # served (and memoized) by spurd
//	tables -t 4.1 -store runs                     # keep runs; a rerun resumes
//
// -json emits the shared report.Doc serialization — the same shape the
// spurd daemon's /v1/tables endpoint returns, so scripted consumers parse
// one format whether the tables were computed locally or served remotely.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	spur "repro"
	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/pkg/client"
)

func main() {
	which := flag.String("t", "all", "table/figure: 2.1, 3.1, 3.2, 3.3, 3.4, 3.5, 4.1, f3.1, f3.2, ext, claims, all")
	refs := flag.Int64("refs", 0, "references per run (0 = default scale)")
	reps := flag.Int("reps", 0, "repetitions for Table 4.1 (0 = default)")
	seed := flag.Uint64("seed", 1, "workload seed")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "concurrent runs for Table 4.1 (1 = serial)")
	paper := flag.Bool("paper", true, "print published values alongside")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (report.Doc rows) instead of text")
	remote := flag.String("remote", "", "spurd base URL; tables are served (and memoized) by the daemon")
	store := flag.String("store", "", "result store directory for Table 4.1 runs (requires -t 4.1): a rerun computes only the missing ones")
	sampled := flag.Bool("sample", false, "estimate Table 4.1 by representative-interval sampling (requires -t 4.1; error bars replace exact counts)")
	intervals := flag.Int("intervals", 0, "with -sample: profiling interval count (default 128)")
	intervalLen := flag.Int64("interval-len", 0, "with -sample: interval length in references (overrides -intervals)")
	warmup := flag.Int64("warmup", 0, "with -sample: cache-warming references before each representative interval (default 2x interval)")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
		os.Exit(2)
	}
	if err := faultinject.ArmCrashFromEnv(); err != nil {
		usage("%v", err)
	}
	if *refs < 0 || *reps < 0 {
		usage("-refs and -reps must not be negative (got %d, %d)", *refs, *reps)
	}
	if *par < 1 {
		usage("-par must be at least 1 (got %d)", *par)
	}
	if !*sampled && (*intervals != 0 || *intervalLen != 0 || *warmup != 0) {
		usage("-intervals/-interval-len/-warmup require -sample")
	}
	if *intervals < 0 || *intervalLen < 0 || *warmup < 0 {
		usage("sampling parameters must be non-negative")
	}
	if *sampled {
		// Sampling pays off on the long table; the short ones finish exactly
		// in seconds anyway.
		if *which != "4.1" {
			usage("-sample estimates Table 4.1 only (use -t 4.1)")
		}
		if *remote != "" {
			usage("-sample runs locally; use `sweep -sample -remote` for daemon-served estimates")
		}
	}
	if *store != "" {
		// Only the long reference-bit table is worth resuming; everything
		// else finishes in seconds.
		if *which != "4.1" {
			usage("-store keeps Table 4.1 runs only (use -t 4.1)")
		}
		if *remote != "" {
			usage("-store keeps local runs; the daemon keeps its own store")
		}
	}

	var so *spur.SampleOptions
	if *sampled {
		so = &spur.SampleOptions{Intervals: *intervals, IntervalLen: *intervalLen, Warmup: *warmup}
	}

	var docs []report.Doc
	if *remote != "" {
		docs = remoteDocs(*remote, *which, *refs, *reps, *seed, *paper, usage)
	} else {
		docs = localDocs(*which, *refs, *reps, *seed, *par, *paper, *store, so, usage)
	}

	if *jsonOut {
		b, err := report.RenderJSON(docs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		_, _ = os.Stdout.Write(b) // a failed stdout write has nowhere better to go
		return
	}
	for _, d := range docs {
		if d.Text != "" {
			fmt.Println(d.Text)
			continue
		}
		t := report.Table{Title: d.Title, Header: d.Header, Rows: d.Rows, Notes: d.Notes}
		fmt.Println(t.String())
	}
}

// localDocs computes the requested artifacts in-process, in the shared
// report.Doc form. The claims are checked on the rows computed for the
// tables, so -t claims computes every table without printing it.
func localDocs(which string, refs int64, reps int, seed uint64, par int, paper bool, store string, so *spur.SampleOptions, usage func(string, ...any)) []report.Doc {
	want := func(name string) bool { return which == "all" || which == name }
	need := func(name string) bool { return want(name) || which == "claims" }
	var docs []report.Doc
	add := func(d report.Doc) {
		if which != "claims" {
			docs = append(docs, d)
		}
	}
	var cr spur.ClaimRows

	if want("2.1") {
		add(spur.Table21().Doc())
	}
	if want("3.1") {
		add(spur.Table31().Doc())
	}
	if want("3.2") {
		add(spur.Table32().Doc())
	}
	if want("f3.1") {
		add(report.TextDoc("Figure 3.1", spur.Figure31()))
	}
	if want("f3.2") {
		add(report.TextDoc("Figure 3.2", spur.Figure32()))
	}

	if need("3.3") || need("3.4") {
		fmt.Fprintln(os.Stderr, "running Table 3.3 event-frequency sweeps...")
		cr.T33 = spur.Table33(spur.Table33Options{Refs: refs, Seed: seed})
	}
	if want("3.3") {
		add(spur.RenderTable33(cr.T33, paper).Doc())
	}
	if want("3.4") {
		add(spur.Table34(cr.T33).Doc())
		if paper {
			add(spur.PaperTable34().Doc())
		}
	}
	if need("3.5") {
		fmt.Fprintln(os.Stderr, "running Table 3.5 Sprite host sweeps...")
		cr.T35 = spur.Table35(seed)
		add(spur.RenderTable35(cr.T35, paper).Doc())
	}
	if need("4.1") {
		t41 := spur.Table41Options{Refs: refs, Reps: reps, Seed: seed, Parallel: par}
		if so != nil {
			fmt.Fprintln(os.Stderr, "estimating Table 4.1 from representative intervals...")
			var rows []spur.SampledRow
			var err error
			if store != "" {
				rows, err = spur.Table41SampledStored(t41, *so, store)
			} else {
				rows, err = spur.Table41Sampled(t41, *so)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tables: %v\n", err)
				os.Exit(1)
			}
			add(spur.RenderTable41Sampled(rows).Doc())
		} else {
			fmt.Fprintln(os.Stderr, "running Table 4.1 reference-bit policy sweeps (this is the long one)...")
			var rows []spur.Table41Row
			if store != "" {
				var err error
				rows, err = spur.Table41Stored(t41, store)
				if err != nil {
					fmt.Fprintf(os.Stderr, "tables: %v\n", err)
					os.Exit(1)
				}
			} else {
				rows = spur.Table41(t41)
			}
			cr.T41 = rows
			add(spur.RenderTable41(rows, paper).Doc())
		}
	}
	if need("ext") {
		fmt.Fprintln(os.Stderr, "running extension sweeps (cache size, fault-handler cost)...")
		cr.Cache = spur.CacheSweep(spur.CacheSweepOptions{Refs: refs, Seed: seed})
		add(spur.RenderCacheSweep(cr.Cache).Doc())
		rows33 := cr.T33
		if rows33 == nil {
			rows33 = spur.Table33(spur.Table33Options{Refs: refs, Seed: seed, SizesMB: []int{5}})
		}
		cr.Tds = spur.FaultHandlerSweep(rows33[0].Events)
		add(spur.RenderFaultHandlerSweep(cr.Tds).Doc())
	}
	if want("claims") {
		fmt.Fprintln(os.Stderr, "running the dirty-bit policies and checking the claims...")
		cr.Dirty = spur.DirtySweep(0, seed)
		docs = append(docs, spur.RenderClaims(spur.CheckClaims(cr)).Doc())
	}

	if len(docs) == 0 {
		usage("unknown table %q; valid: 2.1 3.1 3.2 3.3 3.4 3.5 4.1 f3.1 f3.2 ext claims all", which)
	}
	return docs
}

// remoteDocs fetches the requested artifacts from a spurd daemon; repeated
// invocations are answered from its result store without re-simulating.
func remoteDocs(base, which string, refs int64, reps int, seed uint64, paper bool, usage func(string, ...any)) []report.Doc {
	// The claims are checked locally only, so the daemon serves the
	// tables of -t all without them.
	var ids []string
	if which == "all" {
		ids = client.TableIDs
	} else if client.ValidTableID(which) {
		ids = []string{which}
	} else {
		usage("unknown table %q; valid: 2.1 3.1 3.2 3.3 3.4 3.5 4.1 f3.1 f3.2 ext all", which)
	}
	c := client.New(base)
	q := client.TablesQuery{Refs: refs, Reps: reps, Seed: seed, Paper: paper}
	var docs []report.Doc
	for _, id := range ids {
		resp, err := c.Tables(context.Background(), id, q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		from := "computed"
		if resp.Cached {
			// A store hit, or a fixed artifact that is never stored.
			from = "served without simulating"
		}
		fmt.Fprintf(os.Stderr, "tables: %s %s (key %.12s...)\n", id, from, resp.Key)
		for _, d := range resp.Docs {
			docs = append(docs, report.Doc{
				Title: d.Title, Header: d.Header, Rows: d.Rows, Notes: d.Notes, Text: d.Text,
			})
		}
	}
	return docs
}
