//spurlint:path repro/internal/sample

// Negative fixtures for the sampling engine: the idioms the real package
// uses pass unflagged — deterministic seeding, the sorted-keys walk over
// per-interval results, and sequential per-variant loops.
package fixture

import "sort"

// SeededPick selects a medoid index from an explicitly seeded LCG, the way
// plan construction breaks ties.
func SeededPick(seed uint64, n int) int {
	seed = seed*6364136223846793005 + 1442695040888963407
	return int(seed % uint64(n))
}

// ReplayFrames walks per-interval frames in interval order, not map order.
func ReplayFrames(frames map[int]string) []string {
	var idx []int
	for i := range frames {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		out = append(out, frames[i])
	}
	return out
}

// MeasureVariants drives each variant machine in declaration order, one
// after the other, as the measurement pass does.
func MeasureVariants(warm []func()) {
	for _, w := range warm {
		w()
	}
}
