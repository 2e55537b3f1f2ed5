package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestPoolGeometry(t *testing.T) {
	p := PoolForBytes(5<<20, 128)
	if p.Total() != 1280 {
		t.Errorf("Total = %d, want 1280", p.Total())
	}
	if p.wired != 128 || p.Allocatable() != 1152 || p.Free() != 1152 {
		t.Errorf("wired/allocatable/free = %d/%d/%d", p.wired, p.Allocatable(), p.Free())
	}
	if p.LowWater() < 1 || p.highWater <= p.LowWater() {
		t.Errorf("watermarks %d/%d", p.LowWater(), p.highWater)
	}
}

func TestNewPoolPanics(t *testing.T) {
	for _, c := range []struct{ total, wired int }{{0, 0}, {10, 10}, {10, -1}, {-5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPool(%d,%d) did not panic", c.total, c.wired)
				}
			}()
			NewPool(c.total, c.wired)
		}()
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := NewPool(10, 2)
	seen := map[addr.PFN]bool{}
	for i := 0; i < 8; i++ {
		f, ok := p.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if int(f) < 2 || int(f) >= 10 {
			t.Fatalf("allocated wired/out-of-range frame %d", f)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if _, ok := p.Alloc(); ok {
		t.Error("alloc succeeded past exhaustion")
	}
	if p.Free() != 0 {
		t.Errorf("Free = %d", p.Free())
	}
}

func TestReleaseRecycles(t *testing.T) {
	p := NewPool(10, 2)
	f, _ := p.Alloc()
	p.Release(f)
	g, ok := p.Alloc()
	if !ok || g != f {
		t.Errorf("LIFO reuse: got %d ok=%v, want %d", g, ok, f)
	}
}

func TestReleasePanics(t *testing.T) {
	p := NewPool(10, 2)
	for _, f := range []addr.PFN{0, 1, 10, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%d) did not panic", f)
				}
			}()
			p.Release(f)
		}()
	}
	// Double release.
	f, _ := p.Alloc()
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	p.Release(f)
}

func TestWatermarkPredicates(t *testing.T) {
	p := NewPool(102, 2)
	p.SetWatermarks(5, 10)
	var held []addr.PFN
	for p.Free() >= 5 {
		f, _ := p.Alloc()
		held = append(held, f)
	}
	if !p.NeedsDaemon() {
		t.Error("below low water but NeedsDaemon false")
	}
	if p.AboveHighWater() {
		t.Error("AboveHighWater true below low water")
	}
	for p.Free() < 10 {
		p.Release(held[len(held)-1])
		held = held[:len(held)-1]
	}
	if p.NeedsDaemon() || !p.AboveHighWater() {
		t.Error("watermark predicates wrong after refill")
	}
}

func TestSetWatermarksPanics(t *testing.T) {
	p := NewPool(100, 0)
	for _, c := range []struct{ lo, hi int }{{0, 5}, {5, 5}, {5, 101}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWatermarks(%d,%d) did not panic", c.lo, c.hi)
				}
			}()
			p.SetWatermarks(c.lo, c.hi)
		}()
	}
}

func TestAllocReleaseConservation(t *testing.T) {
	// Property: any alloc/release sequence conserves frames.
	f := func(ops []bool) bool {
		p := NewPool(64, 4)
		var held []addr.PFN
		for _, isAlloc := range ops {
			if isAlloc {
				if fr, ok := p.Alloc(); ok {
					held = append(held, fr)
				}
			} else if len(held) > 0 {
				p.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		return p.Free()+len(held) == p.Allocatable()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
