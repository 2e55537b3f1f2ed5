package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// The tests run every workload at its small size.

// TestMain lets the test binary serve as the simulator workloads' set-up
// probe, as the spurbench binary does.
func TestMain(m *testing.M) {
	if seed := os.Getenv(readyEnv); seed != "" {
		os.Exit(ready(seed))
	}
	os.Exit(m.Run())
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range bench.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads: code has %v, BENCHMARK.json %v", got, want)
	}
	for _, c := range []struct {
		kind string
		file []def
		code []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", c.kind, len(c.file), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", c.kind, i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Result.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Result.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rep.Result.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", rep.Workload, d.name, m, d.unit)
		}
	}
	if !rep.Result.Correct || rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.Workload, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
	}
}

func TestWorkloadsEmitEndToEndMetrics(t *testing.T) {
	for _, w := range workloads {
		rep, err := runUntraced(w, 1, 0, w.small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, rep, endToEnd)
		for _, m := range endToEnd {
			if v := rep.Result.Metrics[m.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
	}
}

// TestTracedRunsAreFaithful runs every workload traced. runTraced itself
// fails when a workload measures other layers than the catalogue declares
// for it.
func TestTracedRunsAreFaithful(t *testing.T) {
	for _, w := range workloads {
		rep, err := runTraced(w, 3, w.small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, rep, perLayer)
		if f := rep.Result.Metrics["trace.faithful"].Value; f != 1 {
			t.Errorf("%s: trace.faithful = %v, want 1", w.name, f)
		}
	}
}

// tamperRT rewrites the first /v1/run reply it carries: the result's cycle
// count gains a leading digit, which still decodes.
type tamperRT struct {
	base http.RoundTripper
	done atomic.Bool
}

func (t *tamperRT) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || r.URL.Path != "/v1/run" || resp.StatusCode != http.StatusOK || !t.done.CompareAndSwap(false, true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body = bytes.Replace(body, []byte(`"Cycles": `), []byte(`"Cycles": 1`), 1)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

func TestTamperedBodyCountsAsFailed(t *testing.T) {
	w := lookup("serve-1node")
	led := newLedger()
	for pass, tamper := range []bool{false, true} {
		st, _, err := timedSetUp(w, w.small, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := st.(*serveStage)
		if tamper {
			s.rt = &tamperRT{base: s.conns}
		}
		op, err := st.run(nil)
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		led.add(op.records...)
		if want := pass; led.failed != want {
			t.Fatalf("after pass %d: %d failed, want %d", pass, led.failed, want)
		}
	}
}

func TestServeDigestIndependentOfFleetSize(t *testing.T) {
	var digests []string
	for _, name := range []string{"serve-1node", "serve-3node"} {
		w := lookup(name)
		st, _, err := timedSetUp(w, w.small, 5)
		if err != nil {
			t.Fatal(err)
		}
		op, err := st.run(nil)
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		led := newLedger()
		led.add(op.records...)
		digests = append(digests, led.digest())
	}
	if digests[0] != digests[1] {
		t.Errorf("one node answered %s, three nodes %s", digests[0], digests[1])
	}
	one, _ := committedDigest("serve-1node")
	three, _ := committedDigest("serve-3node")
	if one == "" || one != three {
		t.Errorf("committed seed-1 digests: serve-1node %q, serve-3node %q", one, three)
	}
	for _, w := range workloads {
		if d, err := committedDigest(w.name); err != nil || d == "" {
			t.Errorf("no committed seed-1 digest for %s (%v)", w.name, err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		if q1, q2, q3 := quartiles(c.xs); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestAgreeFailsBeyondBound(t *testing.T) {
	// ledger writes one report per value, all with the same set-up time
	// unless setups are given.
	ledger := func(walls []float64, setups ...float64) string {
		dir := t.TempDir()
		for i, wall := range walls {
			setup := 1.0
			if setups != nil {
				setup = setups[i]
			}
			rep := report{Workload: "table41-exact", Seed: uint64(i + 1), Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}, "setup_s": {Value: setup, Unit: "s"}},
			}}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	ten := []float64{10, 10, 10}
	base := ledger(ten)
	for _, c := range []struct {
		name    string
		dir     string
		want    bool
		verdict string
	}{
		{"same", ledger(ten), true, ""},
		{"slow", ledger([]float64{20, 20, 20}), false, "exceeds bound"},
		{"noisy", ledger([]float64{6, 10, 14}), false, "unresolved"},
		{"noisy set-up", ledger(ten, 0.6, 1, 1.4), true, "medians compared only"},
	} {
		text, ok, err := agree("../../BENCHMARK.json", base, c.dir)
		if err != nil || ok != c.want || !strings.Contains(text, c.verdict) {
			t.Errorf("%s: agree = %v, %v; want %v and %q in\n%s", c.name, ok, err, c.want, c.verdict, text)
		}
	}
}
