//spurlint:path repro/internal/sample

// Positive goroutine-confinement fixture for the sampling engine: fanning
// the per-variant measurement out to goroutines races on the shared
// generation buffer and records results in completion order instead of
// variant order.
package fixture

// MeasureVariants warms each variant machine concurrently.
func MeasureVariants(warm []func()) {
	for _, w := range warm {
		go w() // want goconfine "goroutine spawned outside"
	}
}
