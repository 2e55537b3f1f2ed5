package vm

import "repro/internal/counters"

// insertBehindHand places a newly resident page so that it is the last page
// the clock hand will reach: with an empty ring it becomes the hand; with a
// populated ring it is inserted just before the hand, making the ring a FIFO
// when no reference bits are ever observed set (the NOREF degeneration the
// paper describes).
func (pg *Pager) insertBehindHand(page *Page) {
	if h := pg.hand; h == nil {
		page.prev, page.next = page, page
		pg.hand = page
	} else {
		page.prev, page.next = h.prev, h
		h.prev.next = page
		h.prev = page
	}
	pg.resident++
}

// removeFromClock deletes a page from the ring, advancing the hand if it
// pointed at the page.
func (pg *Pager) removeFromClock(page *Page) {
	if page.next == nil {
		return
	}
	if pg.hand == page {
		pg.hand = page.next
		if pg.hand == page { // last page
			pg.hand = nil
		}
	}
	page.prev.next = page.next
	page.next.prev = page.prev
	page.prev, page.next = nil, nil
	pg.resident--
}

// frontHandSweep is the number of extra pages the daemon examines (clearing
// reference bits without reclaiming) after reaching its free target — the
// constantly moving front hand of the BSD/Sprite clock, which keeps the
// reference information fresh and is exactly the work the REF policy's
// per-clear page flush multiplies.
const frontHandSweep = 192

// runDaemon is the Sprite page daemon: it sweeps the clock, clearing
// reference bits on referenced pages and reclaiming unreferenced ones,
// until the free list is back above the high watermark, then lets the
// front hand run on for a while clearing bits. A page whose reference bit
// was just cleared gets a full revolution of grace before it can be
// reclaimed, which is the classic second-chance behaviour.
func (pg *Pager) runDaemon() {
	if pg.resident == 0 {
		return
	}
	// Bound the sweep: two full revolutions always suffice (first clears,
	// second reclaims); needing more means the target is unreachable.
	limit := 2*pg.resident + 1
	extra := frontHandSweep
	for scanned := 0; scanned < limit; scanned++ {
		if pg.pool.AboveHighWater() {
			if extra <= 0 {
				return
			}
			extra--
		}
		if pg.resident == 0 {
			return
		}
		page := pg.hand
		pg.hand = page.next
		pg.Stats.Scans++
		pg.ctr.Inc(counters.EvDaemonScan)
		pg.Cycles += pg.tp.DaemonScanCycles

		if pg.os.PageReferenced(page) {
			pg.os.ClearReference(page)
			pg.ctr.Inc(counters.EvRefClear)
			continue
		}
		if !pg.pool.AboveHighWater() {
			pg.reclaim(page)
		}
	}
}

// reclaim evicts one resident page: unmap (which flushes the virtual
// cache), write to the backing store if needed, free the frame.
func (pg *Pager) reclaim(page *Page) {
	pg.os.UnmapPage(page)
	pg.removeFromClock(page)

	modified := pg.os.PageModified(page)
	if page.Writable() {
		pg.Stats.WritablePageOuts++
		if !modified {
			pg.Stats.CleanWritablePageOuts++
		}
	}
	// Sprite writes a zero-fill page to swap on its first replacement
	// even if the program never modified it (footnote 4).
	forcedZFOD := page.Kind.ZeroFill() && !page.OnStore && !modified
	if modified || forcedZFOD {
		if forcedZFOD {
			pg.Stats.ZFODForcedWrites++
		}
		pg.Stats.PageOuts++
		pg.ctr.Inc(counters.EvPageOut)
		pg.Cycles += pg.tp.PageOutCPUCycles
		page.OnStore = true
	}
	if modified {
		page.EverDirtied = true
	}

	page.SoftDirty = false
	page.Resident = false
	pg.pool.Release(page.Frame)
	pg.Stats.Reclaims++
	pg.ctr.Inc(counters.EvPageReclaim)
}
