package core

import "repro/internal/timing"

// Overhead evaluates the Section 3.2 analytic cost model for one dirty-bit
// policy over a set of measured event frequencies, returning cycles.
// Zero-fill faults are excluded, as in Table 3.4: N_ds - N_zfod is
// substituted for N_ds.
//
//	O(MIN)   = N_ds t_ds
//	O(FAULT) = (N_ds + N_ef) t_ds
//	O(FLUSH) = N_ds (t_ds + t_flush)
//	O(SPUR)  = N_ds (t_ds + t_dm) + N_dm t_dm
//	O(WRITE) = N_ds t_ds + N_w-hit t_dc
func Overhead(policy DirtyPolicy, ev Events, tp timing.Params) uint64 {
	nds := ev.NecessaryExcludingZFOD()
	switch policy {
	case DirtyMIN:
		return nds * tp.FaultCycles
	case DirtyFAULT:
		return (nds + ev.Nstale()) * tp.FaultCycles
	case DirtyFLUSH:
		return nds * (tp.FaultCycles + tp.PageFlushCycles)
	case DirtySPUR, DirtyPROT:
		// The generalized protection-bit-miss variant is, as the paper
		// notes, identical in performance to what SPUR built.
		return nds*(tp.FaultCycles+tp.DirtyMissCycles) + ev.Nstale()*tp.DirtyMissCycles
	case DirtyWRITE:
		return nds*tp.FaultCycles + ev.NwHit*tp.DirtyCheckCycles
	}
	panic("core: unknown dirty policy")
}

// OverheadRow is one line of Table 3.4: absolute cycles and the ratio to
// MIN for every policy.
type OverheadRow struct {
	Cycles   map[DirtyPolicy]uint64
	Relative map[DirtyPolicy]float64
}

// OverheadTable evaluates every policy's model over one set of events.
func OverheadTable(ev Events, tp timing.Params) OverheadRow {
	row := OverheadRow{
		Cycles:   make(map[DirtyPolicy]uint64, len(DirtyPolicies)),
		Relative: make(map[DirtyPolicy]float64, len(DirtyPolicies)),
	}
	for _, p := range DirtyPolicies {
		row.Cycles[p] = Overhead(p, ev, tp)
	}
	min := row.Cycles[DirtyMIN]
	for _, p := range DirtyPolicies {
		if min == 0 {
			row.Relative[p] = 1
			continue
		}
		row.Relative[p] = float64(row.Cycles[p]) / float64(min)
	}
	return row
}
