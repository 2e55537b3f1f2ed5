//spurlint:path repro/internal/mem

// Positive statecomplete fixture: the registered type exists but its
// registered copy function does not — retiring CopyFreeFrom without
// updating the registry must fail the lint, not silently skip the check.
// The finding anchors on the package clause (the type's package).
// want statecomplete "registered state type Pool has no copy function Pool.CopyFreeFrom"
package fixture

// Pool mimics the registered frame pool.
type Pool struct {
	free []uint32
}

// Free reads the only field, but it is not the registered copy path.
func (p *Pool) Free() int { return len(p.free) }
