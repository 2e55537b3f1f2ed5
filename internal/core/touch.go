package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/trace"
)

// TouchBatch is the functional-warming counterpart of AccessBatch: it
// advances the machine's state for each reference in order — cache
// contents and line metadata, residency, page faults, reference and dirty
// bits, and the pager/daemon activity they trigger — without charging
// reference-processing time or raising the cache-performance events. The
// sampling engine drives the stream through TouchBatch between
// representative intervals, so the state a representative interval starts
// from is the state the full run would have reached, and the VM events the
// full run takes in those spans are taken (and counted) at the same
// references.
//
// TouchBatch mirrors AccessBatch's state transitions: misses fill the
// block (and the PTE block in-cache translation would fetch), displacing
// the same victims; write hits update the same line flags, fetch the PTE
// block WRITE's check would fetch, and take the same dirty-bit faults;
// page faults, reference faults and their handler PTE stores go through
// the same xlate and pager paths. What it omits is exactly the
// measurement: hit and miss counters, policy-check events (dirty-bit
// misses, excess faults, PTE checks), and the cycle costs of cache
// traffic. VM events — page faults, page-ins/outs, reference-bit traffic
// and page flushes — remain counted, so a machine warmed across a gap
// carries the full run's cumulative VM totals. The daemon's behavior is
// reference-driven (allocation pressure, reference bits), not time-driven,
// so leaving gap cycles uncharged does not perturb it. TouchBatch is the
// one implementation of the warming step; it skips settled write hits
// under the same invariant and the same injector condition as AccessBatch.
func (e *Engine) TouchBatch(recs []trace.Rec) {
	inject := e.Inject != nil
	for i := range recs {
		r := &recs[i]
		b := r.Addr.Block()
		l, hit := e.Cache.Probe(b)
		if !hit {
			e.touchMiss(r.Op, b, r.Addr.Page())
			continue
		}
		if r.Op == trace.OpWrite && (inject || !l.WriteSettled()) {
			e.touchWriteHit(l, r.Addr.Page(), b)
		}
	}
}

// touchPTE brings page p's PTE block into the cache when it is absent, as
// in-cache translation does (xlate's TranslateMiss), without counting the
// walk or charging its cycles, and returns the PTE.
func (e *Engine) touchPTE(p addr.GVPN) pte.Entry {
	pteBlock := e.X.Table().PTEAddr(p).Block()
	if _, hit := e.Cache.Probe(pteBlock); !hit {
		e.Cache.IssueBus(coherence.BusRead, pteBlock)
		e.Cache.Fill(pteBlock, coherence.UnOwned, pte.ProtKernel, false, true, false)
	}
	return e.X.Table().Lookup(p)
}

// touchMiss mirrors miss: warm the PTE block in, fault the page resident if
// needed, apply the reference-bit and dirty-bit policies, fill the block.
func (e *Engine) touchMiss(op trace.Op, b addr.BlockAddr, p addr.GVPN) {
	entry := e.touchPTE(p)

	if !entry.Valid() {
		e.Cycles += e.TP.FaultCycles
		e.Pager.EnsureResident(p)
		entry = e.X.Table().Lookup(p)
		if !entry.Valid() {
			panic(fmt.Sprintf("core: page %#x invalid after warming fault", uint64(p)))
		}
	}

	if e.Ref != RefNONE && !entry.Referenced() {
		e.Ctr.Inc(counters.EvRefFault)
		e.Cycles += e.TP.FaultCycles
		var c uint64
		entry, c = e.X.UpdatePTE(p, func(en pte.Entry) pte.Entry { return en.WithReferenced(true) })
		e.Cycles += c
	}

	if op == trace.OpWrite && !entry.Dirty() {
		e.necessaryFault(p)
		entry = e.X.Table().Lookup(p)
	}

	state := coherence.UnOwned
	if op == trace.OpWrite {
		state = coherence.OwnedExclusive
		e.Cache.IssueBus(coherence.BusReadOwn, b)
	} else {
		e.Cache.IssueBus(coherence.BusRead, b)
	}
	e.Cache.Fill(b, state, entry.Prot(), entry.Dirty(), false, op == trace.OpWrite)
}

// touchWriteHit mirrors writeHit: take the necessary dirty fault the policy
// would take (policy-check events and stale-copy refresh costs are not
// measurement the warming pass keeps), then leave the line exactly as the
// re-executed store would — fresh PTE snapshots, block dirty, owned.
func (e *Engine) touchWriteHit(l cache.LineRef, p addr.GVPN, b addr.BlockAddr) {
	switch e.Dirty {
	case DirtyMIN, DirtySPUR:
		if !l.PageDirty() && !e.X.Table().Lookup(p).Dirty() {
			e.necessaryFault(p)
		}
	case DirtyFAULT, DirtyFLUSH:
		if !l.Prot().AllowsWrite() && !e.X.Table().Lookup(p).Dirty() {
			e.necessaryFault(p)
		}
	case DirtyWRITE:
		// The first write to a clean block checks the PTE, fetching its
		// block as CheckPTE does.
		if !l.BlockDirty() && !e.touchPTE(p).Dirty() {
			e.necessaryFault(p)
		}
	case DirtyPROT:
		if !l.Prot().AllowsWrite() && !e.X.Table().Lookup(p).Prot().AllowsWrite() {
			e.necessaryFault(p)
		}
	}

	entry := e.X.Table().Lookup(p)
	l, hit := e.Cache.Probe(b)
	if !hit {
		// Displaced by handler activity (a FLUSH fault, or the PTE store
		// landing in this frame): refetch as the re-executed store would.
		e.Cache.IssueBus(coherence.BusReadOwn, b)
		e.Cache.Fill(b, coherence.OwnedExclusive, entry.Prot(), entry.Dirty(), false, true)
		return
	}
	l.SetProt(entry.Prot())
	l.SetPageDirty(entry.Dirty())
	l.SetBlockDirty(true)
	ns, busOp, need := coherence.OnLocalWrite(l.State())
	if need {
		e.Cache.IssueBus(busOp, b)
	}
	l.SetState(ns)
}
