// Package workload synthesizes the paper's workloads as multi-process
// reference generators: WORKLOAD1 (a CAD-tool developer's script), SLC (the
// SPUR Common Lisp compiler), and the Sprite development hosts of Table 3.5.
//
// The generators are parameterised in exactly the quantities the paper's
// results hinge on: working-set size against memory size (paging rate),
// the fraction of modified blocks that are read before being written
// (N_w-hit / N_w-miss, which drives excess faults), and the volume of
// zero-fill page creation (N_zfod).
package workload

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic generator (splitmix64). Experiments
// use explicit seeds so runs repeat exactly.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive. The draw is
// unbiased: instead of `x % n` (which over-represents residues below
// 2^64 mod n), the raw draw is mapped through a 128-bit multiply and the
// truncated low fringe is rejected and redrawn (Lemire's method). Kept
// inline rather than shared with stats.Uint64n because this is the
// workload generators' hot path and a method-value closure allocates.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn of non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Threshold converts a probability into the integer threshold Hit compares
// a 53-bit draw k against. The uniform float draw k/2^53 is exact (k < 2^53
// is exact in a float64, and scaling by a power of two is exact), so the
// test k/2^53 < p holds exactly when the integer k is below the real number
// p·2^53, that is when k < ⌈p·2^53⌉. For 0 < p < 1 the product p·2^53 is
// also exact, so math.Ceil computes that bound without rounding. p ≤ 0 and
// NaN never pass (threshold 0), and p ≥ 1 always does (threshold 2^53).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Hit reports true with probability t/2^53. Hit(Threshold(p)) consumes one
// Uint64 and draws exactly what the float draw k/2^53 < p would, with an
// integer compare in place of the conversion and float compare.
func (r *RNG) Hit(t uint64) bool { return r.Uint64()>>11 < t }

// Range returns a uniform int in [lo, hi].
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("workload: empty range")
	}
	return lo + r.Intn(hi-lo+1)
}

// Fork derives an independent stream, for giving each process its own RNG.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
