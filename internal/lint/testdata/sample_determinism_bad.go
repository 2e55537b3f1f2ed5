//spurlint:path repro/internal/sample

// Positive determinism fixtures for the sampling engine: the mistakes a
// memoized measurement pass cannot afford — stamping plans with the wall
// clock and folding cluster weights in map order. Either one makes a rerun
// that measures a group again diverge byte-for-byte from the stored one.
package fixture

import "time"

// StampPlan records when the plan was built. Two builds of the same profile
// then differ.
func StampPlan() int64 {
	return time.Now().Unix() // want determinism "time.Now reads the wall clock"
}

// FoldWeights accumulates per-cluster weights in map order; float addition
// does not commute in rounding, so the totals differ run to run.
func FoldWeights(byCluster map[int]float64) float64 {
	var sum float64
	for _, w := range byCluster {
		sum += w // want determinism "map iteration order is randomized"
	}
	return sum
}
