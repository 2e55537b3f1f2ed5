package spur

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCacheSweepShape(t *testing.T) {
	// A reduced sweep: the prototype's cache and an "approaching infinite"
	// one.
	rows := CacheSweep(CacheSweepOptions{
		CacheSizes: []int{128 << 10, 8 << 20},
		Refs:       3_000_000,
	})
	assertClaims(t, ClaimRows{Cache: rows}, "Cache")
	if s := RenderCacheSweep(rows).String(); !strings.Contains(s, "8192K") {
		t.Error("rendering incomplete")
	}
}

func TestFaultHandlerSweepInsensitive(t *testing.T) {
	// Over the published SLC@5 events: the paper's footnote 2 claim that
	// tuning the handler would not change the conclusions.
	rows := FaultHandlerSweep(core.PaperTable33[0].Events())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	assertClaims(t, ClaimRows{Tds: rows}, "Tds")
	if s := RenderFaultHandlerSweep(rows).String(); !strings.Contains(s, "t_ds") {
		t.Error("rendering incomplete")
	}
}

func TestCacheSweepDeterministic(t *testing.T) {
	// The sweep is a pure function of its options: repeated runs must agree
	// cell for cell, and so must the rendered bytes — the property the
	// spurd daemon's content-addressed store depends on.
	opts := CacheSweepOptions{CacheSizes: []int{64 << 10}, Refs: 400_000, Seed: 7}
	a, b := CacheSweep(opts), CacheSweep(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("CacheSweep not deterministic:\n%+v\n%+v", a, b)
	}
	if ra, rb := RenderCacheSweep(a).String(), RenderCacheSweep(b).String(); ra != rb {
		t.Error("rendering not deterministic")
	}
}

func TestRenderCacheSweepGolden(t *testing.T) {
	// Fixed synthetic rows pin the exact rendering, independent of the
	// simulator: layout regressions fail here, model changes do not.
	rows := []CacheSweepRow{
		{CacheBytes: 32 << 10, Policy: RefMISS, PageIns: 1200, RefFaults: 3400, Elapsed: 12.4, RelPageIns: 1.017},
		{CacheBytes: 32 << 10, Policy: RefTRUE, PageIns: 1180, RefFaults: 5000, Elapsed: 12.1, RelPageIns: 1},
		{CacheBytes: 8 << 20, Policy: RefNONE, PageIns: 2400, RefFaults: 0, Elapsed: 13.9, RelPageIns: 2.034},
	}
	got := RenderCacheSweep(rows).String()
	want := "Extension: MISS-bit approximation vs cache size (SLC)\n" +
		"===========================================================\n" +
		"Cache  Policy  Page-Ins  (vs REF)  Ref Faults  Elapsed(s)  \n" +
		"-----  ------  --------  --------  ----------  ----------  \n" +
		"32K    MISS    1200      (102%)    3400        12          \n" +
		"32K    REF     1180      (100%)    5000        12          \n" +
		"8192K  NOREF   2400      (203%)    0           14          \n" +
		"  the paper's §4 argument: with larger caches the miss-bit approximation decays toward NOREF\n"
	if got != want {
		t.Errorf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestFaultHandlerSweepGolden(t *testing.T) {
	// Over the published SLC@5 events the sweep is pure arithmetic, so the
	// whole rendering can be pinned — and repeated runs must be identical.
	ev := core.PaperTable33[0].Events()
	a, b := FaultHandlerSweep(ev), FaultHandlerSweep(ev)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FaultHandlerSweep not deterministic")
	}
	got := RenderFaultHandlerSweep(a).String()
	want := "Extension: dirty-bit overhead (relative to MIN) vs fault-handler cost t_ds\n" +
		"=======================================\n" +
		"t_ds  FAULT   FLUSH   SPUR    WRITE    \n" +
		"----  ------  ------  ------  -------  \n" +
		"250   (1.16)  (3.00)  (1.12)  (18.59)  \n" +
		"500   (1.16)  (2.00)  (1.06)  (9.80)   \n" +
		"1000  (1.16)  (1.50)  (1.03)  (5.40)   \n" +
		"2000  (1.16)  (1.25)  (1.01)  (3.20)   \n" +
		"4000  (1.16)  (1.12)  (1.01)  (2.10)   \n"
	if got != want {
		t.Errorf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestPROTExported(t *testing.T) {
	if len(AllDirtyPolicies) != 6 || AllDirtyPolicies[5] != DirtyPROT {
		t.Error("AllDirtyPolicies wrong")
	}
	if DirtyPROT.String() != "PROT" {
		t.Error("PROT name")
	}
}

func TestMemorySweep(t *testing.T) {
	// Every cell runs on its own derived seed, so cross-cell comparisons
	// are between independent samples: the budget must be large enough for
	// the memory effect to dominate sampling noise, and the repetition
	// means (not single runs) carry the comparison.
	rows := MemorySweep(MemorySweepOptions{
		SizesMB:   []int{5, 8},
		Workloads: []core.WorkloadName{core.SLC},
		Refs:      3_000_000,
		Reps:      2,
		Parallel:  4,
	})
	if len(rows) != 2*len(RefPolicies) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Page-ins fall with memory for every policy.
	for _, pol := range RefPolicies {
		var at5, at8 float64
		for _, r := range rows {
			if r.PageIns.N != 2 {
				t.Fatalf("%v@%dMB: %d clean reps", r.Policy, r.MemMB, r.PageIns.N)
			}
			if r.Policy == pol && r.MemMB == 5 {
				at5 = r.PageIns.Mean
			}
			if r.Policy == pol && r.MemMB == 8 {
				at8 = r.PageIns.Mean
			}
		}
		if at8 > at5 {
			t.Errorf("%v: page-ins rose with memory (%.1f -> %.1f)", pol, at5, at8)
		}
	}
	chart := MemorySweepChart(rows, core.SLC)
	if !strings.Contains(chart, "MISS") || !strings.Contains(chart, "page-ins") {
		t.Error("chart incomplete")
	}
	csv := MemorySweepCSV(rows)
	if !strings.Contains(csv, "workload,mem_mb") || !strings.Contains(csv, "SLC,5,MISS") {
		t.Errorf("csv incomplete:\n%s", csv)
	}
}
