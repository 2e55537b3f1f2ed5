package spur

// Integration tests: run the actual experiments at a reduced reference
// budget and assert the paper's claims (claims.go) on their rows — the
// bands its abstract and conclusions state, not exact counts.

import (
	"strings"
	"testing"
)

const testRefs = 4_000_000

var table33Cache []Table33Row

func table33(t *testing.T) []Table33Row {
	t.Helper()
	if table33Cache == nil {
		table33Cache = Table33(Table33Options{Refs: testRefs})
	}
	return table33Cache
}

func TestTable33Shape(t *testing.T) {
	rows := table33(t)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	assertClaims(t, ClaimRows{T33: rows}, "3.3")
}

func TestTable34FromMeasuredEvents(t *testing.T) {
	assertClaims(t, ClaimRows{T33: table33(t)}, "3.4")
}

func TestRenderersCarryPaperNumbers(t *testing.T) {
	rows := table33(t)
	s33 := RenderTable33(rows, true).String()
	if !strings.Contains(s33, "2349") { // paper SLC@5 N_ds
		t.Error("Table 3.3 rendering missing paper rows")
	}
	s34 := Table34(rows).String()
	if !strings.Contains(s34, "MIN") || !strings.Contains(s34, "WRITE") {
		t.Error("Table 3.4 rendering incomplete")
	}
	p34 := PaperTable34().String()
	if !strings.Contains(p34, "35.3") { // paper W1@5 WRITE Mcycles
		t.Error("paper Table 3.4 rendering wrong")
	}
	if s := Table21().String(); !strings.Contains(s, "128 Kbytes") {
		t.Error("Table 2.1 wrong")
	}
	if s := Table31().String(); !strings.Contains(s, "excess faults") {
		t.Error("Table 3.1 wrong")
	}
	if s := Table32().String(); !strings.Contains(s, "1000") {
		t.Error("Table 3.2 wrong")
	}
}

func TestFigure31Narrative(t *testing.T) {
	s := Figure31()
	for _, want := range []string{"necessary fault", "excess fault", "RO", "RW", "without a fault"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 3.1 missing %q", want)
		}
	}
}

func TestFigure32Formats(t *testing.T) {
	s := Figure32()
	for _, want := range []string{"Page Dirty Bit", "Block Dirty Bit", "Coherency State", "Physical Page Number"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 3.2 missing %q", want)
		}
	}
}

func TestTable41Shape(t *testing.T) {
	// Two repetitions on independent derived seeds at the reduced budget:
	// the claims' reduced-scale bands leave room for the cross-cell
	// sampling noise of their point values.
	rows := Table41(Table41Options{Refs: testRefs, Reps: 2, SizesMB: []int{5}, Parallel: 4})
	assertClaims(t, ClaimRows{T41: rows}, "4.1")
	s := RenderTable41(rows, true).String()
	if !strings.Contains(s, "NOREF") || !strings.Contains(s, "11959") {
		t.Error("Table 4.1 rendering incomplete")
	}
}

func TestTable35Shape(t *testing.T) {
	// Memory pressure on the Sprite hosts builds over the run, so this
	// experiment needs its full reference budget.
	rows := Table35(1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	assertClaims(t, ClaimRows{T35: rows}, "3.5")
	s := RenderTable35(rows, true).String()
	if !strings.Contains(s, "murder") || !strings.Contains(s, "23302") {
		t.Error("Table 3.5 rendering incomplete")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalRefs = 300_000
	cfg.MemoryBytes = 5 << 20
	a := Run(cfg, SLC())
	b := Run(cfg, SLC())
	if a.Events != b.Events || a.Cycles != b.Cycles {
		t.Error("identical configs diverged")
	}
}

func TestDirtyPolicySimulatedOrdering(t *testing.T) {
	// Direct simulation of every dirty-bit policy on one stream must keep
	// the analytic ordering of their cost, and PROT must cost what SPUR
	// does.
	rows := DirtySweep(1_250_000, 1)
	if len(rows) != len(AllDirtyPolicies) {
		t.Fatalf("rows = %d", len(rows))
	}
	assertClaims(t, ClaimRows{Dirty: rows}, "Dirty")
}

func TestWindowWorkloadCharacter(t *testing.T) {
	// The window workload the paper lacked: write-heavy shared frame
	// buffer. Its pages re-dirty continuously, so the SPUR scheme's edge
	// over FAULT stays small even here (stale copies are rare when pages
	// hardly ever return to the clean state).
	cfg := DefaultConfig()
	cfg.MemoryBytes = 6 << 20
	cfg.TotalRefs = 1_500_000
	res := Run(cfg, Window())
	ev := res.Events
	if ev.Nds == 0 || ev.NwMiss == 0 {
		t.Fatalf("dead run: %+v", ev)
	}
	writeShare := float64(ev.NwHit+ev.NwMiss) / float64(ev.Refs)
	if writeShare < 0.05 {
		t.Errorf("window workload not write-heavy: modified-block rate %.3f", writeShare)
	}
	if f := ev.ExcessFractionExcludingZFOD(); f > 0.6 {
		t.Errorf("excess fraction %.2f implausibly high for re-dirtying pages", f)
	}
}
