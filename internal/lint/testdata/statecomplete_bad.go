//spurlint:path repro/internal/cache

// Positive statecomplete fixture: this package redefines the registered
// cache.Cache with a mutable field its copy path forgot. Deleting a field
// from a real copy function produces exactly this shape.
package fixture

// Cache mimics the registered state type.
type Cache struct {
	tags []uint64
	meta []uint8
	// hand is mutable state CopyFrom does not touch.
	// want statecomplete "field hand of fixture.Cache is not copied by Cache.CopyFrom"
	hand int
	// gen is exempted on the record.
	//spurlint:ignore statecomplete — derived generation counter, rebuilt on first access
	gen uint64
}

// CopyFrom covers tags and meta only.
func (c *Cache) CopyFrom(src *Cache) {
	copy(c.tags, src.tags)
	copy(c.meta, src.meta)
}
