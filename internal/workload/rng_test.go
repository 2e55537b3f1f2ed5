package workload

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntnUnbiasedLargeBound(t *testing.T) {
	// With n just over 2^62 on 64-bit int, a modulo draw would pile ~58%
	// of the mass into the low half; the rejection draw must not.
	if strconv.IntSize < 64 {
		t.Skip("needs 64-bit int")
	}
	n := 1<<62 + 9999
	r := NewRNG(17)
	low := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if r.Intn(n) < n/2 {
			low++
		}
	}
	if frac := float64(low) / draws; frac < 0.47 || frac > 0.53 {
		t.Errorf("low-half fraction %.3f; biased draw", frac)
	}
}
func TestChance(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Hit(Threshold(0.25)) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Hit(Threshold(0.25)) frequency = %v", frac)
	}
	if r.Hit(Threshold(0)) {
		t.Error("Hit(Threshold(0)) fired")
	}
}

func TestRange(t *testing.T) {
	r := NewRNG(13)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("Range(3,6) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("Range never produced %d", v)
		}
	}
	if r.Range(5, 5) != 5 {
		t.Error("degenerate range")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty range did not panic")
		}
	}()
	r.Range(6, 3)
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1, f2 := r.Fork(), r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks correlated on first draw")
	}
}

func TestUint64Uniformish(t *testing.T) {
	// Property: low bit is unbiased over any window.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		ones := 0
		for i := 0; i < 640; i++ {
			ones += int(r.Uint64() & 1)
		}
		return ones > 240 && ones < 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// FuzzThreshold checks that Hit(Threshold(p)) makes exactly the draw the
// uniform float test k/2^53 < p makes from the same Uint64, and leaves the
// generator in the same state: on the
// fuzzed seed's own draw, and on the 53-bit draws either side of the
// threshold, where an off-by-one would show.
func FuzzThreshold(f *testing.F) {
	const two53 = 1 << 53
	for _, p := range []float64{
		0, 1, -1, -0.5, math.Copysign(0, -1), 1.5, 2, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, math.SmallestNonzeroFloat64 * 3, 0x1p-1022, 0x1p-60,
		1.0 / two53, 2.0 / two53, 3.0 / two53, 0.25, 0.5, 0.7, 0.35,
		(two53 - 1.0) / two53, 1 - 0x1p-54, math.Nextafter(1, 0), math.Nextafter(0.25, 1),
	} {
		f.Add(p, uint64(1))
		f.Add(p, uint64(0x9e3779b97f4a7c15))
	}
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		th := Threshold(p)
		if th > two53 {
			t.Fatalf("Threshold(%v) = %d, above 2^53", p, th)
		}
		a, b := NewRNG(seed), NewRNG(seed)
		if got, want := a.Hit(th), float64(b.Uint64()>>11)/two53 < p; got != want {
			t.Fatalf("seed %d, p %v: Hit = %v, k/2^53 < p = %v", seed, p, got, want)
		}
		if *a != *b {
			t.Fatalf("seed %d, p %v: generator states differ after the draw", seed, p)
		}
		for _, k := range []uint64{th - 1, th, th + 1, 0, two53 - 1} {
			if k >= two53 {
				continue
			}
			if got, want := k < th, float64(k)/two53 < p; got != want {
				t.Fatalf("p %v: draw %d decides %v against threshold %d, %v against p", p, k, got, th, want)
			}
		}
	})
}
