package cache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/coherence"
	"repro/internal/pte"
)

// modelCache is an obviously correct reference model of a direct-mapped
// cache: a map from line index to the full Line record, mutated with
// straight-line code. The fuzz drives the real (packed, flat) cache and the
// model with the same operation stream and compares every observable after
// every step — probe hits, victim write-backs and the blocks written back,
// both page-flush flavours' full results, and per-line state.
type modelCache struct {
	lines int
	held  map[int]Line
}

func newModel(lines int) *modelCache {
	return &modelCache{lines: lines, held: map[int]Line{}}
}

func (m *modelCache) index(b addr.BlockAddr) int { return int(uint64(b) % uint64(m.lines)) }

func (m *modelCache) probe(b addr.BlockAddr) (Line, bool) {
	l, ok := m.held[m.index(b)]
	if ok && l.Addr == b {
		return l, true
	}
	return Line{}, false
}

func lineNeedsWriteBack(l Line) bool {
	return l.State.Valid() && (l.BlockDirty || l.State.Owned())
}

// fill mirrors Cache.Fill, also returning the block written back, if any.
func (m *modelCache) fill(b addr.BlockAddr, state coherence.State, prot pte.Prot, pageDirty, isPTE, byWrite bool) (bool, addr.BlockAddr) {
	i := m.index(b)
	wb, victim := false, addr.BlockAddr(0)
	if old, ok := m.held[i]; ok && lineNeedsWriteBack(old) {
		wb, victim = true, old.Addr
	}
	m.held[i] = Line{
		Addr: b, State: state, Prot: prot,
		BlockDirty: byWrite, PageDirty: pageDirty,
		IsPTE: isPTE, FilledByWrite: byWrite,
	}
	return wb, victim
}

func (m *modelCache) flushPage(p addr.GVPN, tagCheck bool) FlushResult {
	res := FlushResult{Checked: addr.BlocksPerPage}
	first := p.FirstBlock()
	for i := 0; i < addr.BlocksPerPage; i++ {
		b := first + addr.BlockAddr(i)
		fi := m.index(b)
		l, ok := m.held[fi]
		if !ok {
			continue
		}
		if tagCheck && l.Addr != b {
			continue
		}
		res.Flushed++
		if lineNeedsWriteBack(l) {
			res.WrittenBack++
		}
		delete(m.held, fi)
	}
	return res
}

// splitmix for the op stream.
func next(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkLines compares every line frame against the model.
func checkLines(t *testing.T, step int, c *Cache, m *modelCache) {
	t.Helper()
	for i := 0; i < c.Lines(); i++ {
		l := c.LineAt(i)
		ml, ok := m.held[i]
		if l.Valid() != ok {
			t.Fatalf("step %d line %d: validity mismatch real=%v model=%v", step, i, l.Valid(), ok)
		}
		if ok && l != ml {
			t.Fatalf("step %d line %d: state mismatch\n real: %+v\nmodel: %+v", step, i, l, ml)
		}
	}
}

// TestCacheAgainstReferenceModel drives 200k random operations through the
// real cache and the model, comparing probes, victim write-backs and the
// blocks the bus saw written back, both page-flush flavours, and complete
// per-line state.
func TestCacheAgainstReferenceModel(t *testing.T) {
	const size = 4096 // 128 lines: frequent conflicts
	c, spy := spiedCache(size)
	m := newModel(c.Lines())
	state := uint64(12345)

	prots := [...]pte.Prot{pte.ProtNone, pte.ProtReadOnly, pte.ProtReadWrite, pte.ProtKernel}
	states := [...]coherence.State{coherence.UnOwned, coherence.OwnedShared, coherence.OwnedExclusive}

	blockUniverse := func() addr.BlockAddr {
		// 512 blocks over 4 pages' worth of address space across two
		// "segments" so tags collide on indexes regularly.
		r := next(&state)
		seg := addr.BlockAddr(r & 1)
		return seg<<25 | addr.BlockAddr((r>>1)%512)
	}

	for step := 0; step < 200000; step++ {
		b := blockUniverse()
		switch next(&state) % 12 {
		case 0, 1, 2, 3: // probe + maybe fill with randomized line state
			_, hit := c.Probe(b)
			_, mhit := m.probe(b)
			if hit != mhit {
				t.Fatalf("step %d: probe mismatch for %#x: real=%v model=%v",
					step, uint64(b), hit, mhit)
			}
			if !hit {
				r := next(&state)
				byWrite := r&1 == 0
				st := states[(r>>1)%3]
				if byWrite {
					st = coherence.OwnedExclusive
				}
				prot := prots[(r>>3)%4]
				pageDirty := r&(1<<5) != 0
				isPTE := r&(1<<6) != 0
				wb := c.Fill(b, st, prot, pageDirty, isPTE, byWrite)
				mwb, mvictim := m.fill(b, st, prot, pageDirty, isPTE, byWrite)
				if wb != mwb {
					t.Fatalf("step %d: write-back mismatch: real=%v model=%v", step, wb, mwb)
				}
				if wb && spy.last != mvictim {
					t.Fatalf("step %d: victim written back as %#x, model %#x", step, uint64(spy.last), uint64(mvictim))
				}
			}
		case 4: // mutate through the LineRef, mirrored in the model
			if l, hit := c.Probe(b); hit {
				i := m.index(b)
				ml := m.held[i]
				r := next(&state)
				switch r % 4 {
				case 0: // write hit: dirty + exclusive
					l.SetBlockDirty(true)
					l.SetState(coherence.OwnedExclusive)
					ml.BlockDirty = true
					ml.State = coherence.OwnedExclusive
				case 1: // page-dirty refresh (dirty-bit miss repair)
					v := r&(1<<8) != 0
					l.SetPageDirty(v)
					ml.PageDirty = v
				case 2: // protection refresh
					p := prots[(r>>2)%4]
					l.SetProt(p)
					ml.Prot = p
				case 3: // coherency downgrade/upgrade
					s := states[(r>>2)%3]
					l.SetState(s)
					ml.State = s
				}
				m.held[i] = ml
			}
		case 6: // tag-checking page flush, full result compared
			page := b.Page()
			res := c.FlushPage(page, true)
			mres := m.flushPage(page, true)
			if res != mres {
				t.Fatalf("step %d: tag-checking flush mismatch\n real: %+v\nmodel: %+v", step, res, mres)
			}
		case 7: // tag-ignoring page flush: the collateral-damage flavour
			page := b.Page()
			res := c.FlushPage(page, false)
			mres := m.flushPage(page, false)
			if res != mres {
				t.Fatalf("step %d: tag-ignoring flush mismatch\n real: %+v\nmodel: %+v", step, res, mres)
			}
		default: // probe only
			_, hit := c.Probe(b)
			if _, mhit := m.probe(b); hit != mhit {
				t.Fatalf("step %d: probe-only mismatch for %#x", step, uint64(b))
			}
		}
		if step%8192 == 0 {
			checkLines(t, step, c, m)
		}
	}

	// Final sweep: every line frame agrees with the model in full.
	checkLines(t, 200000, c, m)
}
