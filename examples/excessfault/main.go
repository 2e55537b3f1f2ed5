// Excessfault walks the Figure 3.1 scenario under every dirty-bit policy:
// two blocks of a clean page are cached, then both are written. The run
// shows exactly where each alternative pays — the excess fault under FAULT,
// the 25-cycle dirty-bit miss under SPUR, the page flush under FLUSH, and
// the per-block PTE check under WRITE.
package main

import (
	"fmt"

	spur "repro"
	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	fmt.Println(spur.Figure31())
	fmt.Println("The same scenario under every alternative:")
	fmt.Printf("\n%-6s  %10s %10s %10s %10s %12s\n",
		"policy", "necessary", "excess", "dirty-miss", "PTE-checks", "policy cycles")

	for _, pol := range spur.DirtyPolicies {
		cfg := spur.DefaultConfig()
		cfg.MemoryBytes = spur.MiB(1)
		cfg.Dirty = pol
		m := spur.NewMachine(cfg)
		seg := addr.KernelSegment + 1 // the first segment a workload allocates
		m.AddRegion(addr.PageIn(seg, 0), 4, vm.Data)
		blk := func(i int) addr.GVA {
			return addr.PageIn(seg, 0).Base() + addr.GVA((20+i)*addr.BlockBytes)
		}

		// Read both blocks while the page is clean, then write both.
		m.Engine.Access(trace.Rec{Op: trace.OpRead, Addr: blk(0)})
		m.Engine.Access(trace.Rec{Op: trace.OpRead, Addr: blk(1)})
		base := m.Engine.Cycles
		m.Engine.Access(trace.Rec{Op: trace.OpWrite, Addr: blk(0)})
		m.Engine.Access(trace.Rec{Op: trace.OpWrite, Addr: blk(1)})

		fmt.Printf("%-6s  %10d %10d %10d %10d %12d\n", pol,
			m.Ctr.Count(counters.EvDirtyFault),
			m.Ctr.Count(counters.EvExcessFault),
			m.Ctr.Count(counters.EvDirtyBitMiss),
			m.Ctr.Count(counters.EvDirtyCheck),
			m.Engine.Cycles-base)
	}
	fmt.Println("\nFAULT pays a second ~1000-cycle fault for the stale block; SPUR replaces it")
	fmt.Println("with a 25-cycle dirty-bit miss; FLUSH avoids it by flushing (and refetching)")
	fmt.Println("the page; WRITE checks the PTE on each first write to a block instead.")
}
