package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/pte"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/xlate"
)

// Engine is the reference-processing state machine: it drives every memory
// reference through the virtual-address cache, in-cache translation, the
// pager, and the configured reference/dirty-bit policies, charging cycles
// and raising counter events exactly where the hardware or the fault
// handlers would. It also implements vm.OS, so the page daemon's
// reference-bit reads/clears and page-out dirty checks flow back through the
// same policies.
type Engine struct {
	//spurlint:ignore statecomplete — component wiring; a fanout split copies the cache's own state with Cache.CopyFrom
	Cache *cache.Cache
	//spurlint:ignore statecomplete — stateless in-cache translation unit, rebuilt when the machine is wired
	X *xlate.Unit
	//spurlint:ignore statecomplete — component wiring; a fanout split copies the pager's own state with Pager.CopyFrom
	Pager *vm.Pager
	//spurlint:ignore statecomplete — component wiring; counters are armed per measured interval, not checkpointed
	Ctr *counters.Set
	//spurlint:ignore statecomplete — timing configuration from the spec, not accumulated state
	TP timing.Params

	//spurlint:ignore statecomplete — policy configuration from the spec, not accumulated state
	Dirty DirtyPolicy
	//spurlint:ignore statecomplete — policy configuration from the spec, not accumulated state
	Ref RefPolicy

	// TagCheckFlush selects the hypothetical tag-checking page flush for
	// kernel page flushes (reclaims, REF clears, FLUSH faults) instead of
	// SPUR's tag-ignoring one.
	//spurlint:ignore statecomplete — policy configuration from the spec, not accumulated state
	TagCheckFlush bool

	// Inject, when non-nil, applies per-reference hardware faults: a
	// forced counter wraparound, a flipped cached page-dirty bit, or a
	// corrupted line tag. A nil injector is inert.
	//spurlint:ignore statecomplete — fault-injection harness configuration; experiments never checkpoint under injection
	Inject *faultinject.Injector

	// Cycles accumulates reference-processing and fault-handler time.
	// Total machine time is Cycles + Pager.Cycles.
	Cycles uint64

	// FaultsByKind breaks necessary dirty faults down by page kind
	// (indexed by vm.PageKind), for workload diagnosis and ablations.
	FaultsByKind [4]uint64

	//spurlint:ignore statecomplete — derived from TP in NewEngine, not accumulated state
	cost cycleCosts
}

// cycleCosts are the reference step's cycle charges, derived from the
// timing parameters once instead of on every reference.
type cycleCosts struct {
	hit, fetch, writeBack uint64
}

var _ vm.OS = (*Engine)(nil)

// NewEngine wires an engine over the given substrates and installs it as
// the pager's OS layer.
func NewEngine(c *cache.Cache, x *xlate.Unit, pager *vm.Pager, ctr *counters.Set, tp timing.Params, dirty DirtyPolicy, ref RefPolicy) *Engine {
	e := &Engine{
		Cache: c, X: x, Pager: pager, Ctr: ctr, TP: tp,
		Dirty: dirty, Ref: ref, TagCheckFlush: true,
		cost: cycleCosts{hit: uint64(tp.HitCycles), fetch: tp.BlockFetchCycles(), writeBack: tp.WriteBackCycles()},
	}
	pager.SetOS(e)
	return e
}

// opMissEvent maps a trace.Op to its miss counter event.
var opMissEvent = [3]counters.Event{
	trace.OpIFetch: counters.EvIFetchMiss,
	trace.OpRead:   counters.EvReadMiss,
	trace.OpWrite:  counters.EvWriteMiss,
}

// Access processes one memory reference: a one-reference AccessBatch.
func (e *Engine) Access(r trace.Rec) { e.AccessBatch([]trace.Rec{r}) }

// tally is the share of the engine's accounting that AccessBatch keeps in
// locals while it runs: issued references by trace.Op, and cache hits,
// each charged HitCycles. The loop flushes it into the counters and Cycles
// before every call that can panic or read them — miss, writeHit and the
// injection hooks — and at the end of the batch, so no code outside the
// loop ever observes the difference.
type tally struct {
	ops  [3]uint64
	hits uint64
}

func (e *Engine) flush(t *tally) {
	e.Ctr.Add(counters.EvIFetch, t.ops[trace.OpIFetch])
	e.Ctr.Add(counters.EvRead, t.ops[trace.OpRead])
	e.Ctr.Add(counters.EvWrite, t.ops[trace.OpWrite])
	e.Cycles += t.hits * e.cost.hit
	*t = tally{}
}

// AccessBatch processes a buffer of references in order. It is the
// engine's one implementation of the reference step; Access is a one-record
// call into it.
//
// A reference is counted by its operation before its probe, miss or fault
// handling can panic, and the tally is flushed before anything that can
// panic: the hardened runner reads the issued count to place a panic on its
// reference. A cache hit costs one cycle and no translation — the virtual
// address cache's reason to exist. A write hit on a settled line (see
// cache.LineRef.WriteSettled) is complete without writeHit, which would
// only re-store the line's own flags: the cached page-dirty and read-write
// snapshots can only be set once the PTE says the same, and the PTE loses
// them only when the page is unmapped and flushed from the cache. Fault
// injection breaks that invariant on purpose, so an armed injector
// disables the skip.
func (e *Engine) AccessBatch(recs []trace.Rec) {
	var t tally
	inject := e.Inject != nil
	for i := range recs {
		r := &recs[i]
		b := r.Addr.Block()
		if inject {
			e.flush(&t)
			if e.Inject.Fire(faultinject.CounterWrap) {
				// The hardware counters jump to the edge of their 32-bit
				// range; the software shadow must carry the measurement
				// across.
				e.Ctr.InjectWraparound(8)
			}
		}
		t.ops[r.Op]++
		l, hit := e.Cache.Probe(b)
		if !hit {
			e.flush(&t)
			e.miss(r.Op, b, r.Addr.Page())
			continue
		}
		if inject {
			e.flush(&t)
			e.injectLineFaults(l)
		}
		t.hits++
		if r.Op == trace.OpWrite && (inject || !l.WriteSettled()) {
			e.flush(&t)
			e.writeHit(l, r.Addr.Page(), b)
		}
	}
	e.flush(&t)
}

// injectLineFaults applies planned soft errors to the line just probed: a
// flipped cached page-dirty bit (silently corrupting the state the paper's
// policies maintain) or a corrupted tag (leaving a valid line that belongs
// to no resident page — the breach the continuous audit must catch). The
// corrupted tag flips block-address bit 24: the cache index and the segment
// are preserved, but the line now claims a page ±2^17 pages away, far
// outside any registered region. The caller checks Inject for nil; this
// runs on every cache hit, so the inert case must not cost a call.
func (e *Engine) injectLineFaults(l cache.LineRef) {
	if e.Inject.Fire(faultinject.DirtyBitFlip) {
		l.SetPageDirty(!l.PageDirty())
	}
	if !l.IsPTE() && e.Inject.Fire(faultinject.LineCorrupt) {
		l.SetAddr(l.Addr() ^ 1<<24)
	}
}

// miss handles a cache miss: translate, fault if needed, apply the
// reference-bit and (for writes) dirty-bit policy, and fill the block.
func (e *Engine) miss(op trace.Op, b addr.BlockAddr, p addr.GVPN) {
	e.Ctr.Inc(opMissEvent[op])
	e.Cycles += e.cost.hit // the probe that missed

	entry, xc, cached := e.X.TranslateCached(p)
	e.Cycles += xc
	if !cached {
		var wroteBack bool
		entry, xc, wroteBack = e.X.TranslateMiss(p)
		e.Cycles += xc
		if wroteBack {
			// Known deviation, kept until ROADMAP item 2's output change:
			// TranslateMiss already charged this victim's write-back.
			e.Ctr.Inc(counters.EvBusWrite)
			e.Cycles += e.cost.writeBack
		}
	}

	if !entry.Valid() {
		// Page fault: the pager makes the page resident and calls back
		// into MapPage, which installs the PTE per the dirty policy.
		e.Cycles += e.TP.FaultCycles
		e.Pager.EnsureResident(p)
		entry = e.X.Table().Lookup(p)
		if !entry.Valid() {
			panic(fmt.Sprintf("core: page %#x invalid after fault", uint64(p)))
		}
	}

	// The reference bit is checked only on cache misses: this is the MISS
	// bit approximation (and the mechanism REF builds on). Under NOREF
	// the hardware bit is left permanently set, so no fault can occur.
	if e.Ref != RefNONE && !entry.Referenced() {
		e.Ctr.Inc(counters.EvRefFault)
		e.Cycles += e.TP.FaultCycles
		var c uint64
		entry, c = e.X.UpdatePTE(p, func(en pte.Entry) pte.Entry { return en.WithReferenced(true) })
		e.Cycles += c
	}

	if op == trace.OpWrite {
		entry = e.writeMiss(p, entry)
	}

	// Fetch the block. Writes arrive owning the block (read-for-
	// ownership); reads arrive unowned.
	state := coherence.UnOwned
	if op == trace.OpWrite {
		state = coherence.OwnedExclusive
		e.Cache.IssueBus(coherence.BusReadOwn, b)
		e.Ctr.Inc(counters.EvWriteMissBlock)
	} else {
		e.Cache.IssueBus(coherence.BusRead, b)
	}
	e.Ctr.Inc(counters.EvBusRead)
	e.Cycles += e.cost.fetch
	v, evicted := e.Cache.Fill(b, state, entry.Prot(), entry.Dirty(), false, op == trace.OpWrite)
	e.chargeVictim(v, evicted)
}

// writeHit applies the dirty-bit policy to a write that hit in the cache.
//
// Policy work can itself disturb the cache (the fault handler's PTE store
// may fetch the PTE block into the frame the written block occupies, and
// the FLUSH policy removes the whole page), so the faulting line's flags
// are captured first and the line is re-probed afterwards; if it was
// displaced, the write completes by refetching the block, exactly as the
// hardware would re-execute the store after the handler returns.
func (e *Engine) writeHit(l cache.LineRef, p addr.GVPN, b addr.BlockAddr) {
	wasClean := !l.BlockDirty()
	byRead := !l.FilledByWrite()

	if !e.Dirty.UsesProtectionEmulation() && !l.Prot().AllowsWrite() {
		// Under the non-emulating policies the protection field means
		// what it says: a write to a read-only page is a real
		// violation, which the synthetic workloads never produce.
		panic(fmt.Sprintf("core: write to read-only page %#x", uint64(p)))
	}

	switch e.Dirty {
	case DirtyMIN:
		// Idealized: perfect first-write detection with zero checking
		// cost. Only the intrinsic software update is charged.
		if !l.PageDirty() {
			if !e.X.Table().Lookup(p).Dirty() {
				e.necessaryFault(p)
			}
		}

	case DirtyFAULT, DirtyFLUSH:
		// The protection cached with the block is what the hardware
		// checks; the PTE's protection may have moved on.
		if !l.Prot().AllowsWrite() {
			page := e.Pager.Lookup(p)
			if page == nil || !page.Writable() {
				panic(fmt.Sprintf("core: protection fault on non-writable page %#x", uint64(p)))
			}
			if e.X.Table().Lookup(p).Dirty() {
				// The page is already writable; only this block's
				// cached protection is stale. The paper's excess
				// fault: full fault cost for no new information.
				e.Ctr.Inc(counters.EvExcessFault)
				e.Cycles += e.TP.FaultCycles
			} else {
				e.necessaryFault(p)
			}
		}

	case DirtySPUR:
		if !l.PageDirty() {
			if e.X.Table().Lookup(p).Dirty() {
				// The cached copy is merely out of date: refresh it
				// with a dirty bit miss (implemented by forcing a
				// cache miss; 25 cycles, not 1000).
				e.Ctr.Inc(counters.EvDirtyBitMiss)
				e.Cycles += e.TP.DirtyMissCycles
			} else {
				e.necessaryFault(p)
				// Returning from the fault refreshes the cached copy
				// through the same dirty-bit-miss mechanism. Its t_dm
				// is charged here, but it is not an N_dm event: the
				// paper's O(SPUR) = N_ds(t_ds + t_dm) + N_dm t_dm
				// books the fault-return refresh inside the N_ds term
				// and reserves N_dm for stale-block refreshes (= N_ef).
				e.Cycles += e.TP.DirtyMissCycles
			}
		}

	case DirtyWRITE:
		// Check the PTE on the first write to this cache block.
		if wasClean {
			entry, c := e.X.CheckPTE(p)
			e.Cycles += c
			if !entry.Dirty() {
				e.necessaryFault(p)
			}
		}

	case DirtyPROT:
		// The generalized SPUR scheme: the dirty-bit-miss idea applied
		// to the protection field itself, needing no extra line bit.
		if !l.Prot().AllowsWrite() {
			page := e.Pager.Lookup(p)
			if page == nil || !page.Writable() {
				panic(fmt.Sprintf("core: protection fault on non-writable page %#x", uint64(p)))
			}
			if e.X.Table().Lookup(p).Prot().AllowsWrite() {
				// Only the cached copy is stale: refresh it with a
				// protection bit miss instead of a 1000-cycle fault.
				e.Ctr.Inc(counters.EvProtBitMiss)
				e.Cycles += e.TP.DirtyMissCycles
			} else {
				e.necessaryFault(p)
				// The fault return refreshes the cached protection by
				// the same forced-miss mechanism.
				e.Cycles += e.TP.DirtyMissCycles
			}
		}
	}

	if wasClean && byRead {
		// A block brought in by a read (or ifetch) is being modified:
		// this is an N_w-hit block.
		e.Ctr.Inc(counters.EvWriteHitBlock)
	}

	entry := e.X.Table().Lookup(p)
	l, hit := e.Cache.Probe(b)
	if !hit {
		// Displaced by handler activity: the re-executed store misses
		// and refetches the block with fresh PTE snapshots.
		e.Ctr.Inc(counters.EvBusRead)
		e.Cycles += e.cost.fetch
		e.Cache.IssueBus(coherence.BusReadOwn, b)
		v, evicted := e.Cache.Fill(b, coherence.OwnedExclusive, entry.Prot(), entry.Dirty(), false, true)
		e.chargeVictim(v, evicted)
		return
	}
	// The handler (or dirty-bit miss) leaves the cached snapshots fresh.
	l.SetProt(entry.Prot())
	l.SetPageDirty(entry.Dirty())
	l.SetBlockDirty(true)

	ns, busOp, need := coherence.OnLocalWrite(l.State())
	if need {
		_, inval := e.Cache.IssueBus(busOp, b)
		if inval {
			e.Ctr.Inc(counters.EvInval)
		}
	}
	l.SetState(ns)
}

// writeMiss applies the dirty-bit policy on the write-miss path, where the
// PTE is in hand anyway (translation just completed), so every policy can
// check it for free.
func (e *Engine) writeMiss(p addr.GVPN, entry pte.Entry) pte.Entry {
	if entry.Dirty() {
		// Already dirty means a write already faulted (or the policy
		// marked it at map time), which established writability; the
		// explicit pager check below would be a hash lookup per write
		// miss spent re-proving it.
		return entry
	}
	page := e.Pager.Lookup(p)
	if page == nil || !page.Writable() {
		panic(fmt.Sprintf("core: write to non-writable page %#x", uint64(p)))
	}
	e.necessaryFault(p)
	return e.X.Table().Lookup(p)
}

// necessaryFault is the software dirty-bit fault common to all policies:
// ~1000 cycles of handler (t_ds) that sets the PTE dirty bit — and, when
// dirty bits are emulated with protection, raises the page to read-write.
// Under FLUSH it then flushes the page so no stale read-only blocks remain
// (callers re-probe afterwards; the faulting store re-executes).
func (e *Engine) necessaryFault(p addr.GVPN) {
	e.Ctr.Inc(counters.EvDirtyFault)
	e.Cycles += e.TP.FaultCycles
	page := e.Pager.Lookup(p)
	if page == nil {
		panic(fmt.Sprintf("core: dirty fault on non-resident page %#x", uint64(p)))
	}
	page.SoftDirty = true
	e.FaultsByKind[page.Kind]++

	_, c := e.X.UpdatePTE(p, func(en pte.Entry) pte.Entry {
		en = en.WithDirty(true)
		if e.Dirty.UsesProtectionEmulation() {
			en = en.WithProt(pte.ProtReadWrite)
		}
		return en
	})
	e.Cycles += c

	if e.Dirty == DirtyFLUSH {
		e.flushPage(p)
	}
}

// chargeVictim accounts for a block displaced by any fill.
func (e *Engine) chargeVictim(v cache.Victim, evicted bool) {
	if !evicted || !v.WriteBack {
		return
	}
	e.Ctr.Inc(counters.EvBusWrite)
	e.Cycles += e.cost.writeBack
}

// flushPage removes a page from the cache, charging the per-block flush
// work and write-backs, and raising the flush events.
func (e *Engine) flushPage(p addr.GVPN) cache.FlushResult {
	res := e.Cache.FlushPage(p, e.TagCheckFlush)
	e.Ctr.Inc(counters.EvPageFlush)
	e.Ctr.Add(counters.EvBlockFlush, uint64(res.Flushed))
	e.Ctr.Add(counters.EvBusWrite, uint64(res.WrittenBack))
	e.Cycles += uint64(res.Checked)*e.TP.FlushCheckCycles +
		uint64(res.Flushed)*e.TP.FlushBlockCycles +
		uint64(res.WrittenBack)*e.cost.writeBack
	return res
}

// --- vm.OS implementation -------------------------------------------------

// MapPage installs the PTE for a page the pager just made resident. The
// dirty policy chooses the protection: under FAULT/FLUSH a writable page
// starts read-only so the first write faults; under the others it starts
// read-write with a clear dirty bit. The handler sets the reference bit —
// the faulting access references the page.
func (e *Engine) MapPage(pg *vm.Page) {
	prot := pte.ProtReadOnly
	if pg.Writable() && !e.Dirty.UsesProtectionEmulation() {
		prot = pte.ProtReadWrite
	}
	_, c := e.X.UpdatePTE(pg.VPN, func(pte.Entry) pte.Entry {
		return pte.Make(pg.Frame, prot).WithReferenced(true)
	})
	e.Cycles += c
}

// UnmapPage invalidates the PTE and flushes the page from the virtual
// cache, as the kernel must before reusing the frame.
func (e *Engine) UnmapPage(pg *vm.Page) {
	e.flushPage(pg.VPN)
	_, c := e.X.UpdatePTE(pg.VPN, func(pte.Entry) pte.Entry { return 0 })
	e.Cycles += c
}

// PageReferenced reads the page reference bit as the daemon sees it.
func (e *Engine) PageReferenced(pg *vm.Page) bool {
	if e.Ref == RefNONE {
		// NOREF: the machine-dependent read routine always returns
		// false, so the replacement scan treats every page alike.
		return false
	}
	return e.X.Table().Lookup(pg.VPN).Referenced()
}

// ClearReference clears the page reference bit. Under REF the daemon also
// flushes the page from the cache, guaranteeing the next reference misses
// and re-sets the bit — true reference bits, at the flush's price.
func (e *Engine) ClearReference(pg *vm.Page) {
	if e.Ref == RefNONE {
		// The clear routine has no effect; the hardware bit stays set.
		return
	}
	_, c := e.X.UpdatePTE(pg.VPN, func(en pte.Entry) pte.Entry { return en.WithReferenced(false) })
	e.Cycles += c
	if e.Ref == RefTRUE {
		e.flushPage(pg.VPN)
	}
}

// PageModified reports whether the page was written this residency, from
// the OS software dirty bit maintained by the fault handlers. (The PTE has
// already been invalidated when the daemon asks.)
func (e *Engine) PageModified(pg *vm.Page) bool { return pg.SoftDirty }

// KernelFlushPage exposes the kernel's page flush for multi-cache
// configurations, where unmapping or a REF-policy clear must flush every
// processor's cache, not just the faulting one's.
func (e *Engine) KernelFlushPage(p addr.GVPN) cache.FlushResult { return e.flushPage(p) }

// TotalCycles returns engine plus pager cycles.
func (e *Engine) TotalCycles() uint64 { return e.Cycles + e.Pager.Cycles }

// ElapsedSeconds converts total cycles to seconds of prototype time.
func (e *Engine) ElapsedSeconds() float64 { return e.TP.Seconds(e.TotalCycles()) }
