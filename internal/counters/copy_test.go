package counters

import "testing"

// view folds s and returns its hardware counters with the spill slot.
func view(s *Set) [HardwareCounters + 1]uint32 {
	s.fold()
	return s.hw
}

// TestCopyFromRoundTrip: a copy reads bit for bit as its source, the spill
// slot and a wraparound already suffered included, and counts on as the
// source does.
func TestCopyFromRoundTrip(t *testing.T) {
	src := New()
	src.SetMode(1)
	src.Add(EvReadMiss, 3)          // wired to a hardware slot in mode 1
	src.Add(EvDirtyFault, 1<<33+17) // unwired in mode 1: lands in the spill slot, wraps 32 bits
	src.InjectWraparound(2)
	src.Add(EvReadMiss, 5) // wraps its counter past 2^32

	dst := New()
	dst.SetMode(3)
	dst.Add(EvWrite, 9) // unfolded counts of its own, which the copy must drop
	dst.CopyFrom(src)
	if dst.Mode() != src.Mode() {
		t.Fatalf("mode: got %d, want %d", dst.Mode(), src.Mode())
	}
	want := view(src)
	if want[HardwareCounters] != 17 {
		t.Fatalf("source spill slot = %d, want 17", want[HardwareCounters])
	}
	if got := view(dst); got != want {
		t.Fatalf("hardware counters: got %v, want %v", got, want)
	}
	if dst.Snapshot() != src.Snapshot() {
		t.Fatalf("shadow counters differ after the copy")
	}

	// The copy must also be wired for its mode: counting must hit the
	// same hardware slot as on the source.
	src.Add(EvReadMiss, 1)
	dst.Add(EvReadMiss, 1)
	if got, want := view(dst), view(src); got != want {
		t.Fatalf("post-copy Add diverged: got %v, want %v", got, want)
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
// switches, injected wraparounds, copies into a set with counts of its own,
// and copies of a fresh set —
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
				r := New() // with unfolded counts of its own, which CopyFrom must drop
				r.Add(Event(next(uint64(NumEvents))), 1+next(9))
				r.CopyFrom(s)
				s = r
			case op < 98:
				s.CopyFrom(New())
				*m = eagerSet{}
			default:
				if got := view(s); got != m.hw {
					t.Fatalf("seed %d step %d: hardware view %v, eager model %v", seed, step, got, m.hw)
				}
			}
		}
		for i := 0; i < HardwareCounters; i++ {
			if got := s.Hardware(i); got != m.hw[i] {
				t.Fatalf("seed %d: Hardware(%d) = %d, eager model %d", seed, i, got, m.hw[i])
			}
		}
		if view(s) != m.hw || s.Snapshot() != m.shadow || s.Mode() != m.mode {
			t.Fatalf("seed %d: final state differs from the eager model", seed)
		}
	}
}
