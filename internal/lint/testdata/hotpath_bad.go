//spurlint:path repro/internal/pte

// Negative hot-path fixture: the designated probe/translate functions have
// regressed onto map-backed state — a hash per reference and randomized
// iteration order, exactly what the dense chunked store removed.
package fixture

// Table mimics the PTE store's surface with a map behind it.
type Table struct {
	m map[uint64]uint32
}

// Lookup is a designated hot-path function.
func (t *Table) Lookup(p uint64) uint32 {
	return t.m[p] // want hotpath "indexes a map"
}

// Set is a designated hot-path function.
func (t *Table) Set(p uint64, e uint32) {
	if t.m == nil {
		t.m = make(map[uint64]uint32) // want hotpath "allocates a map"
	}
	t.m[p] = e // want hotpath "indexes a map"
}

// Invalidate is a designated hot-path function.
func (t *Table) Invalidate(p uint64) {
	delete(t.m, p) // want hotpath "delete mutates a map"
}

// Update is a designated hot-path function.
func (t *Table) Update(p uint64, f func(uint32) uint32) uint32 {
	for k := range t.m { // want hotpath "ranges over a map"
		_ = k
	}
	t.m = map[uint64]uint32{} // want hotpath "builds a map literal"
	return 0
}

// CopyFrom exists so the statecomplete registry's copy path
// (Table.CopyFrom) resolves against this fixture Table; it references the
// backing map without iterating it, keeping the fixture free of
// determinism findings.
func (t *Table) CopyFrom(src *Table) {
	t.m = src.m
}

// Walk is not a designated hot-path function: the same operations pass.
func (t *Table) Walk(p uint64) uint32 {
	return t.m[p]
}
