package counters

import (
	"testing"
	"testing/quick"
)

func TestEventNamesComplete(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == "" {
			t.Errorf("event %d has no name", e)
		}
	}
	if Event(-1).String() != "event(-1)" {
		t.Errorf("out-of-range name = %q", Event(-1).String())
	}
	if Event(NumEvents).String() == eventNames[0] {
		t.Error("out-of-range event aliased a real name")
	}
}

func TestModeMapEventsValid(t *testing.T) {
	for m, row := range modeMap {
		seen := map[Event]bool{}
		for i, e := range row {
			if e < 0 || e >= NumEvents {
				t.Errorf("mode %d counter %d wires invalid event %d", m, i, e)
			}
			if seen[e] {
				t.Errorf("mode %d wires event %v to two counters", m, e)
			}
			seen[e] = true
		}
	}
}

func TestShadowCountsRegardlessOfMode(t *testing.T) {
	s := New()
	s.SetMode(0)
	s.Inc(EvDirtyFault) // dirty-fault is not in mode 0's first counters? it is (index 11)
	s.SetMode(3)
	s.Inc(EvDirtyFault)
	if got := s.Count(EvDirtyFault); got != 2 {
		t.Errorf("shadow = %d, want 2", got)
	}
}

func TestHardwareCountsOnlySelectedMode(t *testing.T) {
	s := New()
	s.SetMode(2)
	s.Add(EvExcessFault, 5)
	// In mode 2, excess-fault is wired to counter 2.
	if got := s.Hardware(2); got != 5 {
		t.Errorf("hw[2] = %d, want 5", got)
	}
	if s.HardwareEvent(2) != EvExcessFault {
		t.Errorf("hw[2] wires %v", s.HardwareEvent(2))
	}
	// Switching modes must not clear hardware counters (as on the chip).
	s.SetMode(0)
	s.Add(EvExcessFault, 3) // not wired in mode 0
	s.SetMode(2)
	if got := s.Hardware(2); got != 5 {
		t.Errorf("hw[2] after mode round-trip = %d, want 5", got)
	}
	if got := s.Count(EvExcessFault); got != 8 {
		t.Errorf("shadow = %d, want 8", got)
	}
}

func TestHardwareWraps32Bits(t *testing.T) {
	s := New()
	s.SetMode(0)
	s.Add(EvIFetch, 1<<32+7)
	if got := s.Hardware(0); got != 7 {
		t.Errorf("hw wrap = %d, want 7", got)
	}
	if got := s.Count(EvIFetch); got != 1<<32+7 {
		t.Errorf("shadow = %d", got)
	}
}

func TestSetModePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetMode(4) did not panic")
		}
	}()
	New().SetMode(NumModes)
}

func TestSnapshotDiff(t *testing.T) {
	s := New()
	s.Add(EvRead, 10)
	before := s.Snapshot()
	s.Add(EvRead, 5)
	s.Add(EvWrite, 2)
	d := Diff(s.Snapshot(), before)
	if d[EvRead] != 5 || d[EvWrite] != 2 {
		t.Errorf("diff = read %d write %d", d[EvRead], d[EvWrite])
	}
}

func TestDiffSaturates(t *testing.T) {
	var a, b [NumEvents]uint64
	a[EvRead] = 3
	b[EvRead] = 5
	if d := Diff(a, b); d[EvRead] != 0 {
		t.Errorf("Diff should saturate at 0, got %d", d[EvRead])
	}
}

// TestShadowSurvivesInjectedWraparound injects a hardware wraparound
// mid-run — the faultinject.CounterWrap fault — and proves the 64-bit
// software shadow keeps the true totals while the 32-bit hardware view
// wraps, across interleaved mode changes as on the chip.
func TestShadowSurvivesInjectedWraparound(t *testing.T) {
	s := New()
	s.SetMode(0)
	s.Add(EvRead, 1000) // hw[1] in mode 0

	// Fault injection: every hardware counter jumps to 8 below the limit.
	s.InjectWraparound(8)
	if got := s.Hardware(1); got != ^uint32(0)-8 {
		t.Fatalf("hw after injection = %d", got)
	}

	// The run continues: 100 more reads wrap the hardware counter.
	s.Add(EvRead, 100)
	if got := s.Hardware(1); got != 91 { // (2^32-9 + 100) mod 2^32
		t.Errorf("hw after wrap = %d, want 91", got)
	}
	if got := s.Count(EvRead); got != 1100 {
		t.Errorf("shadow lost counts across the wrap: %d, want 1100", got)
	}

	// Mode set mid-run (the paper's measurement procedure): the shadow
	// keeps accumulating every event while the hardware view re-wires.
	s.SetMode(2)
	s.Add(EvRead, 50) // hw[10] in mode 2
	s.Add(EvDirtyFault, 3)
	if got := s.Count(EvRead); got != 1150 {
		t.Errorf("shadow after mode set = %d, want 1150", got)
	}
	if got := s.Count(EvDirtyFault); got != 3 {
		t.Errorf("dirty-fault shadow = %d, want 3", got)
	}
	// The injected wrap also poisoned mode 2's counters; the wrapped
	// hardware value is small while the shadow holds the truth.
	if hw := s.Hardware(10); uint64(hw) == s.Count(EvRead) {
		t.Error("hardware counter should have diverged from the shadow")
	}
}

func TestShadowMatchesManualSum(t *testing.T) {
	// Property: for any sequence of (event, n) additions, the shadow equals
	// the arithmetic sum, independent of interleaved mode changes.
	f := func(evs []uint8, ns []uint8) bool {
		s := New()
		var want [NumEvents]uint64
		for i, raw := range evs {
			e := Event(int(raw) % int(NumEvents))
			n := uint64(1)
			if i < len(ns) {
				n = uint64(ns[i])
			}
			s.SetMode(i % NumModes)
			s.Add(e, n)
			want[e] += n
		}
		return s.Snapshot() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWiredTableMatchesModeMap(t *testing.T) {
	// The precomputed wired table in Add must be exactly equivalent to
	// scanning modeMap for the event: the same counter hit for every wired
	// (mode, event) pair, and the write-only spill slot for unwired ones.
	for m := 0; m < NumModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			scan := HardwareCounters
			for i, ev := range modeMap[m] {
				if ev == e {
					if scan != HardwareCounters {
						t.Fatalf("mode %d wires %v twice", m, e)
					}
					scan = i
				}
			}
			if got := int(wired[m][e]); got != scan {
				t.Errorf("mode %d event %v: wired=%d modeMap scan=%d", m, e, got, scan)
			}
		}
	}
}

func TestAddHitsWiredCounter(t *testing.T) {
	for m := 0; m < NumModes; m++ {
		s := New()
		s.SetMode(m)
		for e := Event(0); e < NumEvents; e++ {
			s.Add(e, 3)
		}
		for i, ev := range modeMap[m] {
			if s.Hardware(i) != 3 {
				t.Errorf("mode %d counter %d (%v) = %d, want 3", m, i, ev, s.Hardware(i))
			}
		}
	}
}
