// Package sample is the representative-interval sampling engine that makes
// paper-scale (10⁹-reference) experiments affordable.
//
// The paper's measurements cover on the order of a billion references per
// workload. On a 2-vCPU Intel Xeon host with Go 1.24.0 (medians of three
// spurbench --trace 1 runs per workload at seed 1, each over 1.08×10⁸
// references for table41-exact), exact simulation costs ~49 ns per
// reference (43–50), ~22 ns of which is generating the stream (19–22), and
// functional warming (Engine.TouchBatch) costs ~24 ns per reference beyond
// generation (19–27, sweep-sampled). The stream is a pure function of
// (workload spec, seed) — the machine being simulated feeds nothing back
// into generation. Sampling exploits that three ways, in the SimPoint/SMARTS
// lineage (Bueno et al., arXiv:2402.00649):
//
//  1. A profiling pass generates the whole stream without simulating it,
//     cutting it into fixed-length intervals and reducing each to a small
//     signature vector (page-bucket touch frequencies plus the operation
//     mix — the basic-block-vector analog available to a memory trace).
//  2. A deterministic k-means clustering groups the intervals into phases
//     and picks one representative (medoid) per phase, weighted by how much
//     of the stream the phase covers.
//  3. A measuring pass generates the stream once more and drives every
//     machine variant under study with it, so the generation cost is paid
//     once per group of variants, not once per cell. The cold-start prefix
//     and each representative interval with the warmup before it are
//     simulated in detail; every other reference is warmed functionally
//     (Engine.TouchBatch), so each warmup starts from the cache and VM state
//     the full run would have reached. Per-interval metric deltas are
//     combined into full-run estimates with CI95 error bars by the weighted
//     estimator.
//
// Warming the gaps is the largest part of a measuring pass, and most
// variants need not be stepped through it separately. MISS, REF and NOREF
// differ only in how the page daemon reads and clears reference bits, and
// only a daemon scan clears one, so until a memory size's daemon first runs,
// that size's policy machines and those of every larger size are in one
// state. Variants differing only in policy and memory size therefore run as
// one leader, the group's first largest-memory member. A member splits off
// when its horizon — the leader's free frames, less the frames the member
// lacks, less the member's low watermark — reaches zero: a reference
// allocates at most one frame and the daemon runs only when a fault finds
// fewer than the low watermark free, so until then the member's daemon
// cannot have run. The split copies the leader's state into the member's
// machine, with the free list cut to the member's frames, and from then on
// the member is simulated on its own.
//
// Machine state persists across the gaps ("checkpointed warmup"): each
// variant's machine is warmed through the whole stream once and never
// rebuilt. The measuring pass does no I/O. Resuming belongs to the caller:
// the root package's stored sampled sweep keeps each group's estimates in
// the result store, and a rerun measures only the groups it lacks.
//
// Everything here is deterministic: the profile, the clustering, the
// representative choice, and the measured metrics are pure functions of
// (spec, seed, plan parameters), so sampled results are byte-stable and
// memoizable by content address exactly like exact results.
package sample

import (
	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Signature dimensions: page-residency buckets plus the three operation
// kinds, plus two region-lifecycle features. Page numbers are hashed
// (splitmix64 finalizer) into the buckets so nearby segments spread evenly;
// the op mix catches phase changes that shift the read/write balance without
// moving the footprint; the lifecycle features (pages mapped and pages torn
// down per interval, each normalized by the profile-wide maximum) make the
// rare intervals where a process image is built or destroyed look unlike
// every steady-state interval, so the clusterer gives those bursts — the
// source of teardown page flushes — their own representatives.
const (
	pageBuckets = 32
	opDims      = 3
	envDims     = 2

	envAddDim = pageBuckets + opDims
	envRelDim = pageBuckets + opDims + 1

	// SigDims is the signature vector dimension.
	SigDims = pageBuckets + opDims + envDims
)

// Signature is one interval's normalized touch-frequency vector.
type Signature [SigDims]float64

// Profile is the per-interval signature sequence of one workload stream.
type Profile struct {
	// TotalRefs is the stream length profiled.
	TotalRefs int64 `json:"total_refs"`
	// IntervalLen is the profiling interval length in references.
	IntervalLen int64 `json:"interval_len"`
	// Sigs holds one signature per complete interval, in stream order.
	Sigs []Signature `json:"sigs"`
}

// sigBucket hashes a page number into its signature bucket.
func sigBucket(p uint64) int {
	p = (p ^ (p >> 30)) * 0xbf58476d1ce4e5b9
	p = (p ^ (p >> 27)) * 0x94d049bb133111eb
	p ^= p >> 31
	return int(p & (pageBuckets - 1))
}

// envCounter observes region lifecycle traffic on the way to the profiling
// environment, so the profiler can attribute mapped/torn-down page counts to
// the interval they happen in.
type envCounter struct {
	workload.Env
	added, released int64
}

func (e *envCounter) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	e.added += int64(n)
	return e.Env.AddRegion(start, n, kind)
}

func (e *envCounter) ReleaseRegion(r vm.Region) {
	e.released += int64(r.N)
	e.Env.ReleaseRegion(r)
}

// BuildProfile runs the cheap functional pass: it generates totalRefs
// references of the spec at the given seed — against a throwaway machine
// environment, simulating nothing — and returns one signature per complete
// interval. The trailing partial interval (totalRefs mod intervalLen
// references) is not profiled; the estimator extrapolates over it.
func BuildProfile(spec workload.Spec, seed uint64, totalRefs, intervalLen int64) Profile {
	p := Profile{TotalRefs: totalRefs, IntervalLen: intervalLen}
	if intervalLen <= 0 || totalRefs < intervalLen {
		return p
	}
	// The workload only needs an Env (segment numbers and region
	// registration); a default machine provides the canonical one. Its
	// pager just records regions — generation never faults a page in.
	ec := &envCounter{Env: machine.New(machine.DefaultConfig())}
	script := workload.NewScript(ec, seed, spec)

	nIntervals := totalRefs / intervalLen
	p.Sigs = make([]Signature, 0, nIntervals)

	var sig Signature
	var inInterval int64
	var lastAdded, lastReleased int64
	// Batches never straddle an interval boundary, so each belongs to one
	// interval's signature.
	trace.Pump(script, make([]trace.Rec, trace.BatchSize), nIntervals*intervalLen, intervalLen, func(b []trace.Rec) bool {
		for _, r := range b {
			sig[sigBucket(uint64(r.Addr.Page()))]++
			sig[pageBuckets+int(r.Op)]++
		}
		sig[envAddDim] += float64(ec.added - lastAdded)
		sig[envRelDim] += float64(ec.released - lastReleased)
		lastAdded, lastReleased = ec.added, ec.released
		inInterval += int64(len(b))
		if inInterval == intervalLen {
			// Touch frequencies normalize per reference; the lifecycle
			// dims stay raw until the profile-wide pass below.
			inv := 1 / float64(intervalLen)
			for i := 0; i < envAddDim; i++ {
				sig[i] *= inv
			}
			p.Sigs = append(p.Sigs, sig)
			sig = Signature{}
			inInterval = 0
		}
		return true
	})
	// Normalize the lifecycle dims by their profile-wide maxima so a
	// teardown burst scores ~1.0 — the same magnitude as an op-mix shift —
	// regardless of interval length or burst size.
	for d := envAddDim; d < SigDims; d++ {
		var max float64
		for i := range p.Sigs {
			if p.Sigs[i][d] > max {
				max = p.Sigs[i][d]
			}
		}
		if max > 0 {
			for i := range p.Sigs {
				p.Sigs[i][d] /= max
			}
		}
	}
	return p
}
