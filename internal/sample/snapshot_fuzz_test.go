package sample

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzSnapshotJournal fuzzes the snapshot a fanout split restores from. A
// merged member may split off its leader at any point within its horizon,
// not only where the horizon runs out, and from then on it must be
// bit-for-bit the machine that simulated it alone. The fuzzer picks the
// stream seed, the split point, and the member's memory size and policy;
// a member whose horizon runs out first splits where the fanout splits it.
func FuzzSnapshotJournal(f *testing.F) {
	f.Add(uint64(1), uint16(10_000), uint16(65_535))
	f.Add(uint64(2), uint16(33_333), uint16(17))
	f.Add(uint64(3), uint16(5_000), uint16(0))
	f.Add(uint64(4), uint16(60_000), uint16(40_000))
	f.Fuzz(func(t *testing.T, seed uint64, split16, member16 uint16) {
		split := int64(split16)%50_000 + 1_000
		refs := split + 10_000
		spec := workload.SLCSpec()
		leader := testConfig(refs)
		leader.Seed = seed
		leader.MemoryBytes = core.MiB(8)
		member := leader
		member.MemoryBytes = core.MiB(2) + int(member16%13)<<19 // 2 to 8 MB
		member.Ref = core.RefPolicies[member16/13%3]

		ms := []*machine.Machine{machine.New(leader), machine.New(member)}
		script := workload.NewScript(multiEnv{ms}, seed, spec)
		for _, m := range ms {
			m.Pager.Runnable = script.Runnable
		}
		fo := newFanout(script, ms)
		var pos int64
		advance := func(target int64) {
			pos += trace.Pump(fo, make([]trace.Rec, 512), target-pos, 0, func(b []trace.Rec) bool {
				fo.run(b, false)
				return true
			})
		}
		advance(split)
		if fo.leader[1] != 1 {
			fo.split(1)
		}
		advance(refs)
		if pos != refs {
			t.Fatalf("stream ended at %d refs, want %d", pos, refs)
		}

		solo := machine.New(member)
		s := workload.NewScript(solo, seed, spec)
		solo.Pager.Runnable = s.Runnable
		var soloPos int64
		drive(t, solo, s, &soloPos, refs, true)
		if !reflect.DeepEqual(Capture(ms[1]), Capture(solo)) {
			t.Fatalf("seed %d: %d KB/%s split off at ref %d diverged from its solo run",
				seed, member.MemoryBytes>>10, member.Ref, split)
		}
	})
}
