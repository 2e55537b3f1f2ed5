//spurlint:path repro/internal/xlate

// Positive hot-path fixture: designated functions on dense index-addressed
// state pass, and map state is fine outside the designated functions.
package fixture

// Unit mimics the translation unit: a dense frame array on the hot path,
// a map only in reporting code.
type Unit struct {
	frames []uint32
	stats  map[string]uint64
}

// TranslateCached is a designated hot-path function on dense state.
func (u *Unit) TranslateCached(p uint64) uint32 {
	if len(u.frames) == 0 {
		return 0
	}
	return u.frames[p%uint64(len(u.frames))]
}

// CheckPTE is a designated hot-path function on dense state.
func (u *Unit) CheckPTE(p uint64) uint32 {
	return u.TranslateCached(p)
}

// Note is not on the hot path; map state is fine here.
func (u *Unit) Note(name string) uint64 {
	if u.stats == nil {
		u.stats = make(map[string]uint64)
	}
	u.stats[name]++
	return u.stats[name]
}
