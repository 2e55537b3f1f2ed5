package workload

import (
	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/vm"
)

// SharedParams describes a shared-memory multiprocessor workload: one
// process per CPU, all working over the same globally addressed data region
// (SPUR prevents synonyms by making sharers use the same global virtual
// address), each with private heap and stack.
type SharedParams struct {
	// CPUs is the number of processes (one per processor).
	CPUs int
	// SharedPages is the common writable data region.
	SharedPages int
	// CodePages is the shared program text.
	CodePages int
	// HeapPages / StackPages are per-process private zero-fill areas.
	HeapPages  int
	StackPages int
	// Job carries the behaviour mix every process uses against the
	// shared region (DataPages is overridden by SharedPages).
	Job JobParams
}

// DefaultSharedParams returns a parallel-application mix: the processes
// stream over a shared table, reading mostly and updating in place — the
// access pattern that multiplies stale cached dirty bits across caches.
func DefaultSharedParams(cpus int) SharedParams {
	return SharedParams{
		CPUs:        cpus,
		SharedPages: 512,
		CodePages:   48,
		HeapPages:   32,
		StackPages:  2,
		Job: JobParams{
			Name:        "parallel-worker",
			HotCodeFrac: 0.1,
			PIFetch:     0.55,
			PJump:       0.05, PFarJump: 0.1,
			PStack: 0.08, PAlloc: 0.02, PScanHeap: 0.1,
			PWritePage: 0.45, WriteRO: 0.3, WriteRMW: 0.25,
			ReadPassWrite: 0.002, PBackWrite: 0.01,
			PSeq: 0.3, PHotData: 0.4, HotDataFrac: 0.2, PHotWrite: 0.25,
			WindowPages: 8,
		},
	}
}

// SharedWorkload drives one process per CPU over a common data region.
type SharedWorkload struct {
	segs  segments
	procs []*Job
}

// NewSharedWorkload registers the shared regions and spawns the per-CPU
// processes. Each process gets its own RNG stream and a random starting
// position in the shared region, so the CPUs work different parts of it
// concurrently.
func NewSharedWorkload(env Env, seed uint64, p SharedParams) *SharedWorkload {
	if p.CPUs < 1 {
		panic("workload: shared workload needs at least one CPU")
	}
	rng := NewRNG(seed)
	w := &SharedWorkload{}
	code := env.AddRegion(addr.PageIn(w.segs.alloc(), 0), p.CodePages, vm.Code)
	shared := env.AddRegion(addr.PageIn(w.segs.alloc(), 0), p.SharedPages, vm.Data)
	for i := 0; i < p.CPUs; i++ {
		jp := p.Job
		jp.Refs = 1 << 62
		jp.HeapPages = p.HeapPages
		jp.StackPages = p.StackPages
		jp.RandomStart = true
		w.procs = append(w.procs, newJobWithData(env, &w.segs, rng, jp, []vm.Region{code}, shared, vm.Region{}))
	}
	return w
}

// Step emits the next reference of the given CPU's process.
func (w *SharedWorkload) Step(cpu int) trace.Rec {
	r := w.procs[cpu].Step()
	r.PID = int32(cpu + 1) //spurlint:ignore countersafe — cpu is a processor index bounded by len(w.procs), a handful, never 2^31
	return r
}
