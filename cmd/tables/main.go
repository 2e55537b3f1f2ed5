// Command tables regenerates every table and figure of the paper's
// evaluation section and prints them next to the published values.
//
// Usage:
//
//	tables                        # everything, the claims last (about a minute)
//	tables -t 3.3                 # one table: 2.1, 3.1, 3.2, 3.3, 3.4, 3.5, 4.1
//	tables -t f3.1                # a figure: f3.1, f3.2
//	tables -t claims              # the paper's claims checked, tables not printed
//	tables -refs 4000000 -reps 1  # quicker, coarser runs (Table 3.5's
//	                              # hosts keep their own lengths)
//	tables -json                  # machine-readable report.Doc JSON
//	tables -remote http://127.0.0.1:7421 -t 3.3   # served (and memoized) by spurd
//	tables -store runs                            # keep every run; a rerun resumes
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
	par := flag.Int("par", runtime.GOMAXPROCS(0), "concurrent runs (1 = serial)")
	paper := flag.Bool("paper", true, "print published values alongside")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (report.Doc rows) instead of text")
	remote := flag.String("remote", "", "spurd base URL; tables are served (and memoized) by the daemon")
	store := flag.String("store", "", "result store directory that keeps every run: a rerun computes only the missing ones")
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
	if *store != "" && *remote != "" {
		usage("-store keeps local runs; the daemon keeps its own store")
	}
	if *which != "all" && *which != "claims" && !client.ValidTableID(*which) {
		usage("unknown table %q; valid: 2.1 3.1 3.2 3.3 3.4 3.5 4.1 f3.1 f3.2 ext claims all", *which)
	}

	t41 := spur.Table41Options{Refs: *refs, Reps: *reps, Seed: *seed, Parallel: *par}
	var docs []report.Doc
	var err error
	switch {
	case *remote != "":
		docs = remoteDocs(*remote, *which, t41, *paper, usage)
	case *sampled:
		so := spur.SampleOptions{Intervals: *intervals, IntervalLen: *intervalLen, Warmup: *warmup}
		var rows []spur.SampledRow
		if *store != "" {
			rows, err = spur.Table41SampledStored(t41, so, *store)
		} else {
			rows, err = spur.Table41Sampled(t41, so)
		}
		docs = []report.Doc{spur.RenderTable41Sampled(rows).Doc()}
	default:
		fmt.Fprintf(os.Stderr, "tables: running -t %s (-t claims runs every table)...\n", *which)
		docs, err = spur.TableDocs(*which, t41, *paper, *store)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
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

// remoteDocs fetches the requested artifacts from a spurd daemon; repeated
// invocations are answered from its result store without re-simulating.
func remoteDocs(base, which string, o spur.Table41Options, paper bool, usage func(string, ...any)) []report.Doc {
	// The claims are checked locally only, so the daemon serves the
	// tables of -t all without them.
	ids := []string{which}
	switch which {
	case "all":
		ids = client.TableIDs
	case "claims":
		usage("the claims are checked locally only; drop -remote")
	}
	c := client.New(base)
	q := client.TablesQuery{Refs: o.Refs, Reps: o.Reps, Seed: o.Seed, Paper: paper}
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
