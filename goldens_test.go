package spur

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/workload"
)

// The differential goldens pin the simulator's observable output — every
// paper table and the extension sweeps, at reduced reference budgets — to
// byte-exact files under testdata/goldens. Any change to the core that
// alters a single simulated decision shows up as a golden diff, which is
// what let the flat-core rewrite land with proof of equivalence: the files
// were captured from the struct-per-line/map-based core immediately before
// the swap and have not been regenerated since.
//
// Regenerate (only when an output change is intended and understood) with:
//
//	go test -run TestGoldens -update-goldens .
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens from the current core")

// goldenRefs keeps each golden run small enough for CI while still paging
// heavily (hundreds of page-ins per run at the paper's memory sizes).
const goldenRefs = 300_000

func goldenCases() []struct {
	name   string
	render func() string
} {
	return []struct {
		name   string
		render func() string
	}{
		{"table21", func() string { return Table21().String() }},
		{"table31", func() string { return Table31().String() }},
		{"table32", func() string { return Table32().String() }},
		{"figure31", Figure31},
		{"figure32", Figure32},
		{"paper-table34", func() string { return PaperTable34().String() }},
		{"table33-34", func() string {
			rows := Table33(Table33Options{Refs: goldenRefs, Seed: 1, SizesMB: []int{5, 8}})
			return RenderTable33(rows, true).String() + "\n" + Table34(rows).String()
		}},
		{"table35", func() string {
			return RenderTable35(Table35Scaled(1, 0.02), true).String()
		}},
		{"table41", func() string {
			rows := Table41(Table41Options{Refs: goldenRefs, Reps: 2, Seed: 1, SizesMB: []int{5, 8}})
			return RenderTable41(rows, true).String()
		}},
		{"memsweep", func() string {
			rows := MemorySweep(MemorySweepOptions{
				SizesMB: []int{4, 6, 8},
				Refs:    goldenRefs,
				Seed:    1,
				Reps:    2,
			})
			return MemorySweepCSV(rows) + "\n" +
				MemorySweepChart(rows, core.SLC) + "\n" +
				MemorySweepChart(rows, core.Workload1)
		}},
		{"cachesweep", func() string {
			rows := CacheSweep(CacheSweepOptions{
				CacheSizes: []int{32 << 10, 256 << 10, MiB(1)},
				MemMB:      5,
				Refs:       goldenRefs,
				Seed:       1,
			})
			return RenderCacheSweep(rows).String()
		}},
		{"faulthandlersweep", func() string {
			rows := Table33(Table33Options{Refs: goldenRefs, Seed: 1, SizesMB: []int{5}})
			return RenderFaultHandlerSweep(FaultHandlerSweep(rows[0].Events)).String()
		}},
		// At 10⁶ references the 2 MB machines' page daemons first run
		// inside the exact prefix, the 3 MB machines' mid-stream, and the
		// 8 MB machines' never, so the sampler's merged and split variant
		// paths all feed this file. It was captured from the measuring pass
		// that stepped every variant machine through every reference,
		// before variants were merged.
		{"sampledsweep", func() string {
			rows, err := MemorySweepSampled(MemorySweepOptions{
				Workloads: []core.WorkloadName{core.SLC, core.Workload1},
				SizesMB:   []int{2, 3, 8},
				Policies:  RefPolicies,
				Refs:      1_000_000,
				Seed:      1,
			}, SampleOptions{})
			if err != nil {
				return "error: " + err.Error()
			}
			return SampledSweepCSV(rows)
		}},
		// At 2 MB the shared workload's daemon reclaims on 2 and 4 CPUs, so
		// the multiprocessor's shootdown and reference clears feed this
		// file. It was captured from the MP that kept its own copy of the
		// machine's assembly, before the MP was built on Machine.
		{"mp", func() string {
			var b strings.Builder
			for _, pol := range []struct {
				dirty DirtyPolicy
				ref   RefPolicy
			}{{DirtyFAULT, RefMISS}, {DirtySPUR, RefTRUE}} {
				for _, cpus := range []int{1, 2, 4} {
					cfg := DefaultConfig()
					cfg.MemoryBytes = MiB(2)
					cfg.Dirty, cfg.Ref = pol.dirty, pol.ref
					m := machine.NewMP(cfg, cpus)
					w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(cpus))
					for i := 0; i < cpus*200_000; i++ {
						m.Access(i%cpus, w.Step(i%cpus))
					}
					fmt.Fprintf(&b, "%s/%s, %d CPUs\n", pol.dirty, pol.ref, cpus)
					for ev, n := range m.Ctr.Snapshot() {
						fmt.Fprintf(&b, "  %-24s %d\n", counters.Event(ev), n)
					}
					fmt.Fprintf(&b, "  cycles %d\n  pager %+v\n  bus %v\n\n",
						m.TotalCycles(), m.Pager.Stats, m.Bus.Transactions)
				}
			}
			return b.String()
		}},
	}
}

func TestGoldens(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "goldens", tc.name+".golden")
			got := tc.render()
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to capture): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output differs from pre-rewrite golden %s\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff locates the first differing line so a golden failure points at
// the divergent cell instead of dumping two full tables.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "lengths differ only"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// defaultGolden is the exact output of `go run ./cmd/tables -reps 3`: every
// table at the default scale (seed 1) with the claims last. CI's
// default-goldens job regenerates and diffs it; the same command,
// redirected, rewrites it.
const defaultGolden = "testdata/goldens/tables-default.golden"

// claimsPanel is the committed output of scripts/claims_panel.sh: every
// claim's value and verdict at seeds 1-10.
const claimsPanel = "testdata/claims-panel.txt"

// TestExperimentsQuoteDefaultGolden holds EXPERIMENTS.md's measured blocks
// to the committed outputs they quote: each block between "<!-- golden -->"
// and "<!-- end golden -->" must be a run of the default-scale golden's
// lines, and each between "<!-- claims-panel -->" and
// "<!-- end claims-panel -->" a run of the claims panel's (trailing blanks
// aside), so no measured number there is typed by hand.
func TestExperimentsQuoteDefaultGolden(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := func(s string) []string {
		var out []string
		for _, l := range strings.Split(strings.Trim(s, "\n"), "\n") {
			if !strings.HasPrefix(l, "```") {
				out = append(out, strings.TrimRight(l, " "))
			}
		}
		return out
	}
	for _, q := range []struct{ marker, file string }{{"golden", defaultGolden}, {"claims-panel", claimsPanel}} {
		golden, err := os.ReadFile(q.file)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(lines(string(golden)), "\n") + "\n"
		blocks := strings.Split(string(doc), "<!-- "+q.marker+" -->")[1:]
		for i, b := range blocks {
			body, _, ok := strings.Cut(b, "<!-- end "+q.marker+" -->")
			if !ok {
				t.Fatalf("EXPERIMENTS.md %s block %d has no end marker", q.marker, i+1)
			}
			quoted := strings.Join(lines(body), "\n")
			if quoted == "" || !strings.Contains("\n"+want, "\n"+quoted+"\n") {
				t.Errorf("EXPERIMENTS.md %s block %d is not a run of %s's lines:\n%s", q.marker, i+1, q.file, quoted)
			}
		}
		if len(blocks) == 0 {
			t.Errorf("EXPERIMENTS.md quotes no block of %s", q.file)
		}
	}
}
