package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json agree reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agree compares two directories of report files, such as two ledger runs
// of the same code. For each (workload, metric) it reports both sides'
// median and quartiles over their reports and the spread, the quartile
// distance over the median. ok is false when a report failed its
// correctness checks, and for an end-to-end metric when either side's
// spread exceeds the bound the benchmark file declares (the metric is then
// unresolved: a difference within the bound would prove nothing) or when the
// two medians differ by more than it. setup_s is compared by its medians
// only: one set-up takes milliseconds, and while the set-ups of one run
// agree closely, the run's median moves with the host by 15 to 30%.
func agree(benchPath, dirA, dirB string) (text string, ok bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return "", false, err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return "", false, fmt.Errorf("%s: %w", benchPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var w strings.Builder
	a, okA, err := loadReports(&w, dirA)
	if err != nil {
		return "", false, err
	}
	b, okB, err := loadReports(&w, dirB)
	if err != nil {
		return "", false, err
	}
	ok = okA && okB
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&w, "%-44s %4s %12s %12s %12s %7s %4s %12s %12s %12s %7s %7s\n",
		"workload/metric", "nA", "q1A", "medianA", "q3A", "sprA", "nB", "q1B", "medianB", "q3B", "sprB", "diff")
	for _, k := range keys {
		xb, found := b[k]
		if !found {
			fmt.Fprintf(&w, "%-44s missing from %s\n", k, dirB)
			ok = false
			continue
		}
		xa := a[k]
		a1, a2, a3 := quartiles(xa)
		b1, b2, b3 := quartiles(xb)
		sa, sb, diff := share(a3-a1, a2), share(b3-b1, b2), share(b2-a2, a2)
		verdict := ""
		_, metric, _ := strings.Cut(k, "/")
		if bound, gated := bounds[metric]; gated {
			wide := sa > bound || sb > bound
			switch {
			case wide && metric != "setup_s":
				verdict = fmt.Sprintf("  unresolved: spread exceeds bound %.2f", bound)
				ok = false
			case diff > bound:
				verdict = fmt.Sprintf("  exceeds bound %.2f", bound)
				ok = false
			case wide:
				verdict = fmt.Sprintf("  spread exceeds bound %.2f; medians compared only", bound)
			}
		}
		fmt.Fprintf(&w, "%-44s %4d %12.6g %12.6g %12.6g %6.1f%% %4d %12.6g %12.6g %12.6g %6.1f%% %6.1f%%%s\n",
			k, len(xa), a1, a2, a3, 100*sa, len(xb), b1, b2, b3, 100*sb, 100*diff, verdict)
	}
	for k := range b {
		if _, found := a[k]; !found {
			fmt.Fprintf(&w, "%-44s missing from %s\n", k, dirA)
			ok = false
		}
	}
	return w.String(), ok, nil
}

// share is |d| as a share of |of|; a zero d is 0 even when of is 0, so two
// counts that read 0 on both sides agree.
func share(d, of float64) float64 {
	if d == 0 {
		return 0
	}
	return math.Abs(d) / math.Abs(of)
}

// loadReports groups a directory's report values by "workload/metric"; it
// also reports whether every report passed its correctness checks.
func loadReports(w *strings.Builder, dir string) (map[string][]float64, bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, false, err
	}
	if len(paths) == 0 {
		return nil, false, fmt.Errorf("no report files in %s", dir)
	}
	out := map[string][]float64{}
	ok := true
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, false, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, false, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Result.Correct || r.Result.Failed > 0 {
			fmt.Fprintf(w, "%s: correct=%v, %d of %d operations failed\n", p, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
			ok = false
		}
		for name, m := range r.Result.Metrics {
			k := r.Workload + "/" + name
			out[k] = append(out[k], m.Value)
		}
	}
	return out, ok, nil
}
