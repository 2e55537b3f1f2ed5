package counters

import (
	"strings"
	"testing"
)

// TestRestoreModeMismatch pins the failure mode of restoring a checkpoint
// whose mode register is out of range: Restore goes through SetMode, which
// panics rather than loading a mode the hardware does not have. A snapshot
// carrying such a mode is corrupt, and silently clamping it would wire the
// restored counters differently from the machine that was captured.
func TestRestoreModeMismatch(t *testing.T) {
	for _, mode := range []int{-1, NumModes, NumModes + 7} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Restore with mode %d did not panic", mode)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "invalid mode") {
					t.Errorf("Restore with mode %d panicked with %v, want invalid-mode message", mode, r)
				}
			}()
			s := New()
			var hw [HardwareCounters + 1]uint32
			var shadow [NumEvents]uint64
			s.Restore(mode, hw, shadow)
		}()
	}
}

// TestRestoreRoundTrip: a valid mode restores bit-for-bit, including the
// spill slot and any wraparound already present in the hardware view.
func TestRestoreRoundTrip(t *testing.T) {
	src := New()
	src.SetMode(1)
	src.Add(EvReadMiss, 3)          // wired to a hardware slot in mode 1
	src.Add(EvDirtyFault, 1<<33+17) // unwired in mode 1: lands in the spill slot, wraps 32 bits

	dst := New()
	dst.Restore(src.Mode(), src.HardwareSnapshot(), src.Snapshot())
	if dst.Mode() != src.Mode() {
		t.Fatalf("mode: got %d, want %d", dst.Mode(), src.Mode())
	}
	if dst.HardwareSnapshot() != src.HardwareSnapshot() {
		t.Fatalf("hardware counters: got %v, want %v", dst.HardwareSnapshot(), src.HardwareSnapshot())
	}
	if dst.Snapshot() != src.Snapshot() {
		t.Fatalf("shadow counters differ after restore")
	}

	// The restored set must also be wired for its mode: counting must hit
	// the same hardware slot as on the source.
	src.Add(EvReadMiss, 1)
	dst.Add(EvReadMiss, 1)
	if dst.HardwareSnapshot() != src.HardwareSnapshot() {
		t.Fatalf("post-restore Add diverged: got %v, want %v", dst.HardwareSnapshot(), src.HardwareSnapshot())
	}
}

// eagerSet is the counter block as the chip counts: every Add goes straight
// to the hardware counter (or spill slot) its event is wired to.
type eagerSet struct {
	mode   int
	hw     [HardwareCounters + 1]uint32
	shadow [NumEvents]uint64
}

func (m *eagerSet) add(e Event, n uint64) {
	m.shadow[e] += n
	m.hw[wired[m.mode][e]] += uint32(n)
}

// TestLazyHardwareViewMatchesEagerModel drives a Set and an eagerly counted
// model through the same seeded operations — Adds (some of 2^32+k), mode
// switches, injected wraparounds, snapshot/restore round trips and resets —
// and compares the hardware view only now and then, so long runs of Adds
// stay unfolded across the operations that must fold them.
func TestLazyHardwareViewMatchesEagerModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s, m := New(), &eagerSet{}
		x := seed
		next := func(n uint64) uint64 { // splitmix64
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return (z ^ (z >> 31)) % n
		}
		for step := 0; step < 5000; step++ {
			switch op := next(100); {
			case op < 70:
				e := Event(next(uint64(NumEvents)))
				n := next(5)
				if next(50) == 0 {
					n = 1<<32 + next(1000)
				}
				s.Add(e, n)
				m.add(e, n)
			case op < 80:
				e := Event(next(uint64(NumEvents)))
				s.Inc(e)
				m.add(e, 1)
			case op < 88:
				mode := int(next(NumModes))
				s.SetMode(mode)
				m.mode = mode
			case op < 92:
				slack := uint32(next(16))
				s.InjectWraparound(slack)
				for i := 0; i < HardwareCounters; i++ {
					m.hw[i] = ^uint32(0) - slack
				}
			case op < 97:
				r := New() // with unfolded counts of its own, which Restore must drop
				r.Add(Event(next(uint64(NumEvents))), 1+next(9))
				r.Restore(s.Mode(), s.HardwareSnapshot(), s.Snapshot())
				s = r
			case op < 98:
				s.Reset()
				m.hw, m.shadow = [HardwareCounters + 1]uint32{}, [NumEvents]uint64{}
			default:
				if got := s.HardwareSnapshot(); got != m.hw {
					t.Fatalf("seed %d step %d: hardware view %v, eager model %v", seed, step, got, m.hw)
				}
			}
		}
		for i := 0; i < HardwareCounters; i++ {
			if got := s.Hardware(i); got != m.hw[i] {
				t.Fatalf("seed %d: Hardware(%d) = %d, eager model %d", seed, i, got, m.hw[i])
			}
		}
		if s.HardwareSnapshot() != m.hw || s.Snapshot() != m.shadow || s.Mode() != m.mode {
			t.Fatalf("seed %d: final state differs from the eager model", seed)
		}
	}
}
