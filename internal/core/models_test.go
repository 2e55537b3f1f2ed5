package core

import (
	"math"
	"testing"

	"repro/internal/timing"
)

// TestModelsReproducePaperTable34 is the strongest validation available for
// the Section 3.2 cost models: evaluated over the published Table 3.3 event
// frequencies, they must reproduce the published Table 3.4 to rounding.
func TestModelsReproducePaperTable34(t *testing.T) {
	tp := timing.Default()
	for _, row33 := range PaperTable33 {
		var row34 *PaperRow34
		for i := range PaperTable34 {
			if PaperTable34[i].Workload == row33.Workload && PaperTable34[i].MemMB == row33.MemMB {
				row34 = &PaperTable34[i]
				break
			}
		}
		if row34 == nil {
			t.Fatalf("no Table 3.4 row for %s/%dMB", row33.Workload, row33.MemMB)
		}
		ev := row33.Events()
		for _, pol := range DirtyPolicies {
			got := float64(Overhead(pol, ev, tp)) / 1e6
			want := row34.MCycles[pol]
			// Published values carry 3 significant digits.
			if relErr := math.Abs(got-want) / want; relErr > 0.01 {
				t.Errorf("%s/%dMB O(%s) = %.3fM cycles, paper says %.3fM (err %.1f%%)",
					row33.Workload, row33.MemMB, pol, got, want, 100*relErr)
			}
		}
	}
}

func TestOverheadTableRelative(t *testing.T) {
	ev := PaperTable33[0].Events() // SLC @ 5MB
	row := OverheadTable(ev, timing.Default())
	if row.Relative[DirtyMIN] != 1.0 {
		t.Errorf("MIN relative = %v", row.Relative[DirtyMIN])
	}
	// Paper: FAULT 1.16, FLUSH 1.50, SPUR 1.03, WRITE 5.41.
	for pol, want := range map[DirtyPolicy]float64{
		DirtyFAULT: 1.16, DirtyFLUSH: 1.50, DirtySPUR: 1.03, DirtyWRITE: 5.41,
	} {
		if got := row.Relative[pol]; math.Abs(got-want) > 0.02 {
			t.Errorf("relative O(%s) = %.3f, want %.2f", pol, got, want)
		}
	}
}

func TestPolicyOrderingInvariant(t *testing.T) {
	// For every published row: MIN <= SPUR <= FAULT and WRITE worst.
	tp := timing.Default()
	for _, r := range PaperTable33 {
		ev := r.Events()
		min, spur := Overhead(DirtyMIN, ev, tp), Overhead(DirtySPUR, ev, tp)
		fault, flush := Overhead(DirtyFAULT, ev, tp), Overhead(DirtyFLUSH, ev, tp)
		write := Overhead(DirtyWRITE, ev, tp)
		if !(min <= spur && spur <= fault) {
			t.Errorf("%s/%d: ordering MIN=%d SPUR=%d FAULT=%d", r.Workload, r.MemMB, min, spur, fault)
		}
		if write <= fault || write <= flush {
			t.Errorf("%s/%d: WRITE=%d should be worst (FAULT=%d FLUSH=%d)", r.Workload, r.MemMB, write, fault, flush)
		}
	}
}

// TestFaultBeatsFlushBreakEven applies the paper's break-even analysis:
// FAULT is superior to FLUSH if there are at least twice as many necessary
// faults as excess faults (t_flush being roughly half of t_ds).
func TestFaultBeatsFlushBreakEven(t *testing.T) {
	tp := timing.Default()
	faultBeatsFlush := func(ev Events) bool {
		return Overhead(DirtyFAULT, ev, tp) <= Overhead(DirtyFLUSH, ev, tp)
	}
	// With the paper's parameters (t_flush = t_ds/2), FAULT beats FLUSH
	// exactly when N_ef <= N_ds/2.
	mk := func(nds, nef uint64) Events { return Events{Nds: nds, Nef: nef, Ndm: nef} }
	if !faultBeatsFlush(mk(1000, 400)) {
		t.Error("FAULT should win at N_ef = 0.4 N_ds")
	}
	if !faultBeatsFlush(mk(1000, 500)) {
		t.Error("FAULT should tie/win at N_ef = 0.5 N_ds")
	}
	if faultBeatsFlush(mk(1000, 501)) {
		t.Error("FLUSH should win past the break-even")
	}
	// Every published row is comfortably on FAULT's side.
	for _, r := range PaperTable33 {
		if !faultBeatsFlush(r.Events()) {
			t.Errorf("%s/%d: paper row on FLUSH's side", r.Workload, r.MemMB)
		}
	}
}

func TestEventDerivedRatios(t *testing.T) {
	// SLC @ 5MB: excess fraction 237/2349 = 10.1%; excluding zero-fills
	// 237/1444 = 16.4%; read-before-write 1.27/(1.27+7.38) = 14.7%.
	ev := PaperTable33[0].Events()
	if f := ev.ExcessFraction(); math.Abs(f-0.1009) > 0.001 {
		t.Errorf("ExcessFraction = %v", f)
	}
	if f := ev.ExcessFractionExcludingZFOD(); math.Abs(f-0.1641) > 0.001 {
		t.Errorf("ExcessFractionExcludingZFOD = %v", f)
	}
	if f := ev.ReadBeforeWriteFraction(); math.Abs(f-0.1468) > 0.001 {
		t.Errorf("ReadBeforeWriteFraction = %v", f)
	}
	// The footnote-3 model: (1-p_w)/p_w = NwHit/NwMiss = 0.172.
	if f := ev.PredictedExcessFraction(); math.Abs(f-1.27/7.38) > 0.001 {
		t.Errorf("PredictedExcessFraction = %v", f)
	}
}

func TestPaperRangesHold(t *testing.T) {
	// The abstract's claims over the published data: excess faults are
	// 19% of total faults on average (we measure over necessary faults
	// excluding zero-fills: 15%-34%), and roughly one fifth (16%-24%) of
	// modified blocks are read before written.
	var sumExcl float64
	for _, r := range PaperTable33 {
		ev := r.Events()
		excl := ev.ExcessFractionExcludingZFOD()
		if excl < 0.14 || excl > 0.35 {
			t.Errorf("%s/%d: excess fraction excl zfod %.2f outside 15%%-34%%", r.Workload, r.MemMB, excl)
		}
		sumExcl += excl
		rbw := ev.ReadBeforeWriteFraction()
		if rbw < 0.13 || rbw > 0.25 {
			t.Errorf("%s/%d: read-before-write %.2f outside ~one fifth", r.Workload, r.MemMB, rbw)
		}
	}
	if avg := sumExcl / float64(len(PaperTable33)); math.Abs(avg-0.19) > 0.03 {
		t.Errorf("average excess fraction %.3f, paper says ~19%%", avg)
	}
}

func TestTable35Percentages(t *testing.T) {
	// "with 8 megabytes of memory at least 80% of all modifiable pages
	// are modified. With 12 megabytes or more, the fraction is at least
	// 90%. … additional paging I/O … at most 3%."
	for _, r := range PaperTable35 {
		notMod := r.PctNotMod()
		if r.MemMB == 8 && notMod > 20 {
			t.Errorf("%s: %.1f%% not modified at 8MB", r.Host, notMod)
		}
		if r.MemMB >= 12 && notMod > 10 {
			t.Errorf("%s: %.1f%% not modified at %dMB", r.Host, notMod, r.MemMB)
		}
		if extra := r.PctExtraIO(); extra > 3.0 {
			t.Errorf("%s: %.1f%% extra paging I/O", r.Host, extra)
		}
	}
}

func TestEventsEdgeCases(t *testing.T) {
	var ev Events
	if ev.ExcessFraction() != 0 || ev.ExcessFractionExcludingZFOD() != 0 ||
		ev.ReadBeforeWriteFraction() != 0 || ev.PredictedExcessFraction() != 0 {
		t.Error("zero events should yield zero ratios")
	}
	ev = Events{Nds: 5, Nzfod: 9}
	if ev.NecessaryExcludingZFOD() != 0 {
		t.Error("NecessaryExcludingZFOD should saturate at zero")
	}
	ev = Events{Nef: 3, Ndm: 7}
	if ev.Nstale() != 7 {
		t.Error("Nstale should take the larger mechanism count")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range DirtyPolicies {
		if p.String() == "" || p.Describe() == "unknown" {
			t.Errorf("policy %d poorly described", p)
		}
	}
	for _, p := range RefPolicies {
		if p.String() == "" {
			t.Errorf("ref policy %d unnamed", p)
		}
	}
	if DirtyPolicy(99).String() == "" || RefPolicy(99).String() == "" {
		t.Error("fallback names empty")
	}
	if DirtyPolicy(99).Describe() != "unknown" {
		t.Error("fallback describe")
	}
}

func TestOverheadUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Overhead(DirtyPolicy(99), Events{}, timing.Default())
}
