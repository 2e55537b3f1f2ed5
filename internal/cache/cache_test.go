package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/coherence"
	"repro/internal/pte"
)

const testSize = 128 * 1024

func TestNewGeometry(t *testing.T) {
	c := New(testSize)
	if c.Lines() != 4096 {
		t.Errorf("Lines = %d, want 4096", c.Lines())
	}
}

func TestNewPanics(t *testing.T) {
	for _, bad := range []int{0, -32, 48, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

// TestTagRoundTrip: at every geometry the cache sweep runs, smallest to
// largest, a frame's 32-bit tag rebuilds the exact block it holds — the
// lowest and highest block of the 38-bit global space included — for every
// path that returns an address: Probe's ref, LineAt and the victim's bus
// write-back.
func TestTagRoundTrip(t *testing.T) {
	const top = addr.BlockAddr(1)<<(addr.GlobalBits-addr.BlockShift) - 1
	for _, size := range []int{32 << 10, 128 << 10, 1 << 20, 8 << 20} {
		n := addr.BlockAddr(size / addr.BlockBytes)
		for _, b := range []addr.BlockAddr{0, 12345, top - n, top} {
			c, spy := spiedCache(size)
			c.Fill(b, coherence.OwnedExclusive, pte.ProtReadWrite, true, false, true)
			l, hit := c.Probe(b)
			if !hit || l.Addr() != b || c.LineAt(int(b%n)).Addr != b {
				t.Fatalf("%d KB: block %#x reads back as %#x (hit %v)", size>>10, uint64(b), uint64(l.Addr()), hit)
			}
			// The conflicting block differs only in its tag bits.
			conflict := b ^ n
			if wb := c.Fill(conflict, coherence.UnOwned, pte.ProtReadOnly, false, false, false); !wb || spy.last != b {
				t.Fatalf("%d KB: victim of %#x written back %v, as %#x", size>>10, uint64(b), wb, uint64(spy.last))
			}
			if _, hit := c.Probe(b); hit {
				t.Fatalf("%d KB: evicted block %#x still probes", size>>10, uint64(b))
			}
		}
	}
}

// busSpy records the block of the last bus transaction it snooped.
type busSpy struct{ last addr.BlockAddr }

// spiedCache returns a cache of the given size on a bus with a spy, which
// sees the block of every write-back.
func spiedCache(size int) (*Cache, *busSpy) {
	c := New(size)
	bus := coherence.NewBus()
	c.AttachBus(bus)
	spy := &busSpy{}
	bus.Attach(spy)
	return c, spy
}

func (s *busSpy) Snoop(op coherence.BusOp, b addr.BlockAddr) coherence.SnoopResult {
	s.last = b
	return coherence.SnoopResult{}
}

// TestNewPanicsOnWideTag: a one-frame cache would need a 33-bit tag for a
// 38-bit global address; two frames are the smallest geometry the 32-bit
// tag store holds.
func TestNewPanicsOnWideTag(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New of a one-line cache did not panic")
			}
		}()
		New(addr.BlockBytes)
	}()
	if c := New(2 * addr.BlockBytes); c.Lines() != 2 {
		t.Errorf("two-line cache has %d lines", c.Lines())
	}
}

// TestSetAddrCorruptsTagOnly: fault injection's corrupted tag flips block
// bit 24, which lies above the index at every swept geometry, so the frame
// keeps its index and now claims another page; a block that maps to
// another frame cannot be written into a tag at all.
func TestSetAddrCorruptsTagOnly(t *testing.T) {
	c := New(8 << 20)
	b := addr.BlockAddr(0x1234567)
	c.Fill(b, coherence.UnOwned, pte.ProtReadOnly, false, false, false)
	l, _ := c.Probe(b)
	l.SetAddr(l.Addr() ^ 1<<24)
	if _, hit := c.Probe(b); hit {
		t.Error("the original block still probes after its tag was corrupted")
	}
	if got, hit := c.Probe(b ^ 1<<24); !hit || got.i != l.i || got.Addr().Page() == b.Page() {
		t.Errorf("corrupted line: hit %v, frame %d, page %#x", hit, got.i, uint64(got.Addr().Page()))
	}
	defer func() {
		if recover() == nil {
			t.Error("SetAddr of a block of another frame did not panic")
		}
	}()
	l.SetAddr(b + 1)
}

func TestProbeMissAndFillHit(t *testing.T) {
	c := New(testSize)
	b := addr.BlockAddr(12345)
	if _, hit := c.Probe(b); hit {
		t.Fatal("probe hit in empty cache")
	}
	if c.Fill(b, coherence.UnOwned, pte.ProtReadOnly, false, false, false) {
		t.Fatal("fill into empty cache wrote a victim back")
	}
	l, hit := c.Probe(b)
	if !hit {
		t.Fatal("probe miss after fill")
	}
	if l.Prot() != pte.ProtReadOnly || l.PageDirty() || l.BlockDirty() || l.FilledByWrite() || l.IsPTE() {
		t.Errorf("line snapshot wrong: %+v", c.LineAt(int(l.i)))
	}
	if l.Addr() != b {
		t.Errorf("line addr = %#x, want %#x", uint64(l.Addr()), uint64(b))
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c, spy := spiedCache(testSize)
	b1 := addr.BlockAddr(100)
	b2 := b1 + addr.BlockAddr(c.Lines()) // same index, different tag
	c.Fill(b1, coherence.OwnedExclusive, pte.ProtReadWrite, true, false, true)
	if !c.Fill(b2, coherence.UnOwned, pte.ProtReadOnly, false, false, false) {
		t.Fatal("conflicting fill did not write its dirty victim back")
	}
	if spy.last != b1 {
		t.Errorf("victim written back as %#x, want %#x", uint64(spy.last), uint64(b1))
	}
	if _, hit := c.Probe(b1); hit {
		t.Error("evicted block still probes")
	}
	if _, hit := c.Probe(b2); !hit {
		t.Error("new block missing")
	}
	if c.Stats.WriteBacks != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestFillResidentPanics(t *testing.T) {
	c := New(testSize)
	b := addr.BlockAddr(5)
	c.Fill(b, coherence.UnOwned, pte.ProtReadOnly, false, false, false)
	defer func() {
		if recover() == nil {
			t.Error("double fill did not panic")
		}
	}()
	c.Fill(b, coherence.UnOwned, pte.ProtReadOnly, false, false, false)
}

// TestVictimReadThenNeverWritten: a block brought in by a read and never
// written leaves without a write-back; written after its read fill, it is
// written back.
func TestVictimReadThenNeverWritten(t *testing.T) {
	c, spy := spiedCache(testSize)
	b := addr.BlockAddr(7)
	conflict := b + addr.BlockAddr(c.Lines())
	c.Fill(b, coherence.UnOwned, pte.ProtReadWrite, false, false, false)
	if c.Fill(conflict, coherence.UnOwned, pte.ProtReadOnly, false, false, false) {
		t.Errorf("clean read-filled victim %#x written back", uint64(spy.last))
	}
	if _, hit := c.Probe(b); hit {
		t.Error("clean victim still probes")
	}
	// Now a read-filled block that gets written (N_w-hit shape).
	c.Fill(b, coherence.UnOwned, pte.ProtReadWrite, false, false, false)
	mustProbe(t, c, b).SetBlockDirty(true)
	if !c.Fill(conflict, coherence.UnOwned, pte.ProtReadOnly, false, false, false) || spy.last != b {
		t.Errorf("written read-filled victim %#x: not written back as such (last write-back %#x)", uint64(b), uint64(spy.last))
	}
}

// mustProbe probes b and fails the test on a miss, returning the line ref.
func mustProbe(t *testing.T, c *Cache, b addr.BlockAddr) LineRef {
	t.Helper()
	l, hit := c.Probe(b)
	if !hit {
		t.Fatalf("block %#x not resident", uint64(b))
	}
	return l
}

// resident counts the blocks of page p the cache holds.
func resident(c *Cache, p addr.GVPN) int {
	n := 0
	for i := 0; i < addr.BlocksPerPage; i++ {
		if _, hit := c.Probe(p.FirstBlock() + addr.BlockAddr(i)); hit {
			n++
		}
	}
	return n
}

func fillPage(c *Cache, p addr.GVPN, nblocks int, dirty bool) {
	st := coherence.UnOwned
	if dirty {
		st = coherence.OwnedExclusive
	}
	for i := 0; i < nblocks; i++ {
		c.Fill(p.FirstBlock()+addr.BlockAddr(i), st, pte.ProtReadWrite, false, false, dirty)
	}
}

func TestFlushPageTagChecking(t *testing.T) {
	c := New(testSize)
	p := addr.GVPN(3)
	// A conflicting page that maps to the same line frames: 4096 lines /
	// 128 blocks-per-page = 32 pages of cache, so p+32 conflicts exactly.
	q := p + addr.GVPN(c.Lines()/addr.BlocksPerPage)
	fillPage(c, p, 10, false)
	fillPage(c, q, addr.BlocksPerPage, true) // q evicts p entirely
	fillPage(c, p, 10, true)                 // p's first 10 blocks displace q's

	res := c.FlushPage(p, true)
	if res.Checked != addr.BlocksPerPage {
		t.Errorf("Checked = %d", res.Checked)
	}
	if res.Flushed != 10 || res.WrittenBack != 10 {
		t.Errorf("tag-checking flush: %+v", res)
	}
	if rem := resident(c, q); rem != addr.BlocksPerPage-10 {
		t.Errorf("other page lost blocks: %d resident", rem)
	}
}

// TestFlushPageTagIgnoringCollateral: SPUR's flush empties all 128 frames
// page p maps to, whatever page their lines belong to, so a page resident
// in p's frames is flushed with it.
func TestFlushPageTagIgnoringCollateral(t *testing.T) {
	c := New(testSize)
	p := addr.GVPN(3)
	q := p + addr.GVPN(c.Lines()/addr.BlocksPerPage)
	fillPage(c, q, addr.BlocksPerPage, false) // q fully resident in p's frames
	res := c.FlushPage(p, false)
	if res.Flushed != addr.BlocksPerPage {
		t.Errorf("tag-ignoring flush: %+v", res)
	}
	if rem := resident(c, q); rem != 0 {
		t.Errorf("collateral page survived: %d resident", rem)
	}
	for i := 0; i < c.Lines(); i++ {
		if c.LineAt(i).Valid() {
			t.Fatalf("frame %d still holds a line", i)
		}
	}
}

func TestIndexMappingProperty(t *testing.T) {
	// Property: a fill always lands where a probe of the same block looks,
	// and distinct blocks with the same index conflict.
	f := func(raw uint64) bool {
		c := New(4096) // tiny 128-line cache for faster collisions
		b := addr.BlockAddr(raw % (1 << 33))
		c.Fill(b, coherence.UnOwned, pte.ProtReadOnly, false, false, false)
		if _, hit := c.Probe(b); !hit {
			return false
		}
		conflict := b + addr.BlockAddr(c.Lines())
		c.Fill(conflict, coherence.UnOwned, pte.ProtReadOnly, false, false, false)
		_, oldHit := c.Probe(b)
		_, newHit := c.Probe(conflict)
		return !oldHit && newHit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnoopInvalidatesAndTransfersOwnership(t *testing.T) {
	bus := coherence.NewBus()
	c1, c2 := New(testSize), New(testSize)
	c1.AttachBus(bus)
	c2.AttachBus(bus)
	b := addr.BlockAddr(42)

	// c1 owns the block exclusively.
	c1.Fill(b, coherence.OwnedExclusive, pte.ProtReadWrite, false, false, true)
	// c2 read-misses: issues BusRead; c1 supplies and degrades to OwnedShared.
	supplied, _ := c2.IssueBus(coherence.BusRead, b)
	if !supplied {
		t.Fatal("owner did not supply on BusRead")
	}
	if st := mustProbe(t, c1, b).State(); st != coherence.OwnedShared {
		t.Errorf("owner state = %v", st)
	}
	c2.Fill(b, coherence.UnOwned, pte.ProtReadWrite, false, false, false)

	// c2 writes: BusInval drops c1's copy without a memory write-back.
	wbBefore := c1.Stats.WriteBacks
	c2.IssueBus(coherence.BusInval, b)
	if _, hit := c1.Probe(b); hit {
		t.Error("BusInval left stale copy in c1")
	}
	if c1.Stats.WriteBacks != wbBefore {
		t.Error("snoop invalidation wrote back (ownership moves on the bus, not through memory)")
	}
	l := mustProbe(t, c2, b)
	l.SetState(coherence.OwnedExclusive)
	l.SetBlockDirty(true)

	// Eviction of the owned block in c2 now writes back.
	conflict := b + addr.BlockAddr(c2.Lines())
	if !c2.Fill(conflict, coherence.UnOwned, pte.ProtReadOnly, false, false, false) {
		t.Error("owned block eviction did not write back")
	}
	if bus.Transactions[coherence.BusWriteBack] != 1 {
		t.Errorf("bus write-backs = %d", bus.Transactions[coherence.BusWriteBack])
	}
}

func TestSnoopMissIsNoop(t *testing.T) {
	c := New(testSize)
	if r := c.Snoop(coherence.BusReadOwn, 7); r.Supplied || r.Invalidated {
		t.Errorf("snoop miss acted: %+v", r)
	}
}

func TestFormat(t *testing.T) {
	s := Format()
	for _, f := range []string{"PR", "P", "B", "CS", "Virtual Address Tag"} {
		if !strings.Contains(s, f) {
			t.Errorf("Format missing %q", f)
		}
	}
}
