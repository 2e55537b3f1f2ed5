// Package cache implements SPUR's 128 Kbyte direct-mapped unified
// virtual-address cache.
//
// The cache is indexed and tagged with global virtual addresses, so hits
// proceed without any translation. Each line (Figure 3.2b of the paper)
// carries, besides the tag and the Berkeley Ownership coherency state, a
// *block* dirty bit (the block was modified while in the cache), and cached
// copies of the page's protection and *page* dirty bit, snapshotted from the
// PTE when the block was brought in. Those snapshots are the crux of the
// paper: the PTE can change while blocks are resident, leaving stale cached
// protection (excess faults under the FAULT policy) or a stale cached page
// dirty bit (dirty-bit misses under the SPUR policy).
//
// The line state is stored flat, exactly as the hardware does: a tag array
// indexed by line frame, and one packed byte per frame holding the whole
// Figure 3.2b record (coherency state, protection, both dirty bits, plus the
// simulator's two bookkeeping flags). The probe-hit path — the single most
// executed code in the simulator — is then two array loads and a compare,
// with no per-line struct to copy. Callers hold a LineRef, a tiny index
// handle whose getters and setters read and write the packed arrays
// directly.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/coherence"
	"repro/internal/pte"
)

// Line is a decoded snapshot of one cache block frame (Figure 3.2b). The
// cache does not store Lines; it stores the packed arrays below. Line exists
// as the inspection view for audits, dumps and tests — mutate through
// LineRef, not through a Line copy.
type Line struct {
	// Addr is the global virtual block address held, valid only when
	// State.Valid().
	Addr addr.BlockAddr
	// State is the Berkeley Ownership coherency state (CS field).
	State coherence.State
	// BlockDirty is the block dirty bit B: the block was modified while
	// in the cache and must be written back on replacement.
	BlockDirty bool
	// PageDirty is the cached copy of the page dirty bit P, snapshotted
	// from the PTE at fill time and possibly stale thereafter.
	PageDirty bool
	// Prot is the cached copy of the page protection, snapshotted from
	// the PTE at fill time and possibly stale thereafter.
	Prot pte.Prot
	// IsPTE marks lines holding page-table entries brought in by the
	// in-cache translation mechanism.
	IsPTE bool
	// FilledByWrite records whether the block was brought in by a write
	// miss (as opposed to a read or instruction fetch). Together with
	// BlockDirty it classifies N_w-hit vs N_w-miss blocks.
	FilledByWrite bool
}

// Valid reports whether the line holds a block.
func (l Line) Valid() bool { return l.State.Valid() }

// The per-line metadata byte. The coherency state occupies the low bits so
// that a zero byte is exactly an Invalid, empty frame — clearing a line is
// storing zero.
const (
	metaStateMask  = 0b0000_0011 // coherence.State (Invalid = 0)
	metaProtShift  = 2
	metaProtMask   = 0b0000_1100 // pte.Prot
	metaBlockDirty = 1 << 4
	metaPageDirty  = 1 << 5
	metaIsPTE      = 1 << 6
	metaByWrite    = 1 << 7
)

func init() {
	// The packing gives two bits each to the coherency state and the
	// protection field, as the hardware tag does; fail at startup if either
	// enum ever outgrows them.
	if coherence.OwnedExclusive > 3 || pte.ProtKernel > 3 {
		panic("cache: state or protection no longer fits its 2-bit meta field")
	}
}

// packMeta encodes a line's non-tag state into one byte.
func packMeta(state coherence.State, prot pte.Prot, blockDirty, pageDirty, isPTE, byWrite bool) uint8 {
	m := uint8(state) | uint8(prot)<<metaProtShift
	if blockDirty {
		m |= metaBlockDirty
	}
	if pageDirty {
		m |= metaPageDirty
	}
	if isPTE {
		m |= metaIsPTE
	}
	if byWrite {
		m |= metaByWrite
	}
	return m
}

// metaNeedsWriteBack reports whether replacing a line with this metadata
// requires a memory write: it holds a block that is dirty or owned.
func metaNeedsWriteBack(m uint8) bool {
	st := coherence.State(m & metaStateMask)
	return st.Valid() && (m&metaBlockDirty != 0 || st.Owned())
}

// Victim describes a block displaced by a fill or flush.
type Victim struct {
	Addr addr.BlockAddr
	// WriteBack is true if the block was dirty/owned and had to be
	// written to memory.
	WriteBack bool
	// ReadThenNeverWritten is true if the block was brought in by a read
	// and left clean — the common case the FLUSH cost model's "90% of
	// blocks at 1 cycle" term reflects.
	ReadThenNeverWritten bool
	IsPTE                bool
}

// Stats counts cache-internal events for tests and reports. The experiment
// harness uses the counters package instead; these stay here so the cache is
// independently observable.
type Stats struct {
	Fills      uint64
	Evictions  uint64
	WriteBacks uint64
	BlockFlush uint64
	PageFlush  uint64
}

// Cache is a direct-mapped virtual-address cache.
type Cache struct {
	// tags[i] and meta[i] together are line frame i. A frame is empty iff
	// meta[i]'s coherency state is Invalid (meta[i]&metaStateMask == 0);
	// its tag is then meaningless.
	tags []addr.BlockAddr
	meta []uint8
	//spurlint:ignore statecomplete — derived from the configured size in New; reconstructing the cache rebuilds it
	indexMask uint64

	//spurlint:ignore statecomplete — coherency wiring, re-established by Bus.Attach when the machine is rebuilt
	bus *coherence.Bus
	//spurlint:ignore statecomplete — coherency wiring, re-established by Bus.Attach when the machine is rebuilt
	port int

	// Stats accumulates internal event counts.
	Stats Stats
}

// New returns a cache of the given total size and the architectural 32-byte
// block size. Size must be a power of two and a multiple of the block size.
func New(sizeBytes int) *Cache {
	if sizeBytes <= 0 || sizeBytes%addr.BlockBytes != 0 {
		panic(fmt.Sprintf("cache: bad size %d", sizeBytes))
	}
	n := sizeBytes / addr.BlockBytes
	if bits.OnesCount(uint(n)) != 1 {
		panic(fmt.Sprintf("cache: line count %d not a power of two", n))
	}
	return &Cache{
		tags:      make([]addr.BlockAddr, n),
		meta:      make([]uint8, n),
		indexMask: uint64(n - 1),
		port:      -1,
	}
}

// AttachBus connects the cache to a shared bus for coherency snooping.
func (c *Cache) AttachBus(bus *coherence.Bus) {
	c.bus = bus
	c.port = bus.Attach(c)
}

// Lines returns the number of block frames.
func (c *Cache) Lines() int { return len(c.tags) }

// SizeBytes returns the cache capacity in bytes.
func (c *Cache) SizeBytes() int { return len(c.tags) * addr.BlockBytes }

// index returns the line index for block b (direct mapped).
func (c *Cache) index(b addr.BlockAddr) uint64 { return uint64(b) & c.indexMask }

// LineRef is a handle to one resident line frame, as returned by Probe. Its
// accessors read and write the cache's packed state in place, so a LineRef
// plays the role the hardware's tag-store port does: mutations through it
// model the controller updating the tag bits of the probed frame. A LineRef
// is only meaningful until the frame is refilled or flushed; callers re-probe
// after anything that can displace lines, as the re-executed store would.
type LineRef struct {
	c *Cache
	i uint32
}

// Index returns the frame index (for diagnostics).
func (r LineRef) Index() int { return int(r.i) }

// Addr returns the global virtual block address held.
func (r LineRef) Addr() addr.BlockAddr { return r.c.tags[r.i] }

// SetAddr overwrites the tag. No normal path does this; it exists for fault
// injection, which corrupts tags to exercise the audit machinery.
func (r LineRef) SetAddr(b addr.BlockAddr) { r.c.tags[r.i] = b }

// State returns the Berkeley Ownership coherency state.
func (r LineRef) State() coherence.State {
	return coherence.State(r.c.meta[r.i] & metaStateMask)
}

// SetState updates the coherency state.
func (r LineRef) SetState(s coherence.State) {
	m := &r.c.meta[r.i]
	*m = *m&^metaStateMask | uint8(s)
}

// BlockDirty returns the block dirty bit B.
func (r LineRef) BlockDirty() bool { return r.c.meta[r.i]&metaBlockDirty != 0 }

// SetBlockDirty updates the block dirty bit.
func (r LineRef) SetBlockDirty(v bool) {
	if v {
		r.c.meta[r.i] |= metaBlockDirty
	} else {
		r.c.meta[r.i] &^= metaBlockDirty
	}
}

// PageDirty returns the cached copy of the page dirty bit P.
func (r LineRef) PageDirty() bool { return r.c.meta[r.i]&metaPageDirty != 0 }

// SetPageDirty updates the cached page dirty bit.
func (r LineRef) SetPageDirty(v bool) {
	if v {
		r.c.meta[r.i] |= metaPageDirty
	} else {
		r.c.meta[r.i] &^= metaPageDirty
	}
}

// Prot returns the cached copy of the page protection.
func (r LineRef) Prot() pte.Prot {
	return pte.Prot((r.c.meta[r.i] & metaProtMask) >> metaProtShift)
}

// SetProt updates the cached protection.
func (r LineRef) SetProt(p pte.Prot) {
	m := &r.c.meta[r.i]
	*m = *m&^metaProtMask | uint8(p)<<metaProtShift
}

// IsPTE reports whether the frame holds a page-table block.
func (r LineRef) IsPTE() bool { return r.c.meta[r.i]&metaIsPTE != 0 }

// FilledByWrite reports whether a write miss brought the block in.
func (r LineRef) FilledByWrite() bool { return r.c.meta[r.i]&metaByWrite != 0 }

// WriteSettled reports whether a write to the line can change nothing: it
// is owned exclusively, already modified, and its cached snapshots say the
// page is dirty and read-write. One load and compare of the packed byte.
func (r LineRef) WriteSettled() bool {
	return r.c.meta[r.i]&metaSettledMask == metaSettled
}

// metaSettled is the metadata of a settled line, ignoring the bookkeeping
// flags; metaSettledMask selects the bits it fixes.
const (
	metaSettledMask = metaStateMask | metaProtMask | metaBlockDirty | metaPageDirty
	metaSettled     = uint8(coherence.OwnedExclusive) | uint8(pte.ProtReadWrite)<<metaProtShift | metaBlockDirty | metaPageDirty
)

// Line returns a decoded snapshot of the frame.
func (r LineRef) Line() Line { return r.c.LineAt(int(r.i)) }

// Probe looks up block b and reports whether it is resident. On a hit the
// returned LineRef addresses the frame holding it; callers mutate the frame
// through the ref to model hardware actions (setting the block dirty bit,
// refreshing the cached page dirty bit, …). On a miss the LineRef is the
// zero value and must not be used.
func (c *Cache) Probe(b addr.BlockAddr) (LineRef, bool) {
	i := c.index(b)
	if c.meta[i]&metaStateMask != 0 && c.tags[i] == b {
		//spurlint:ignore countersafe — i is a line index masked to the frame count, at most 2^22 for the largest sweepable cache, far inside uint32
		return LineRef{c: c, i: uint32(i)}, true
	}
	return LineRef{}, false
}

// LineAt decodes the frame at a raw index for inspection in tests and dumps.
func (c *Cache) LineAt(i int) Line {
	m := c.meta[i]
	l := Line{
		State:         coherence.State(m & metaStateMask),
		Prot:          pte.Prot((m & metaProtMask) >> metaProtShift),
		BlockDirty:    m&metaBlockDirty != 0,
		PageDirty:     m&metaPageDirty != 0,
		IsPTE:         m&metaIsPTE != 0,
		FilledByWrite: m&metaByWrite != 0,
	}
	if l.State.Valid() {
		l.Addr = c.tags[i]
	}
	return l
}

// Fill brings block b into the cache after a miss, snapshotting the page
// protection and page dirty bit from the PTE, and returns the displaced
// victim, if any. byWrite records whether a write miss caused the fill;
// state is the arriving coherency state (UnOwned for reads, OwnedExclusive
// for writes under Berkeley Ownership).
func (c *Cache) Fill(b addr.BlockAddr, state coherence.State, prot pte.Prot, pageDirty, isPTE, byWrite bool) (Victim, bool) {
	i := c.index(b)
	m := c.meta[i]
	var v Victim
	evicted := false
	if m&metaStateMask != 0 {
		old := c.tags[i]
		if old == b {
			panic("cache: Fill of resident block")
		}
		v = Victim{
			Addr:                 old,
			WriteBack:            metaNeedsWriteBack(m),
			ReadThenNeverWritten: m&(metaByWrite|metaBlockDirty) == 0,
			IsPTE:                m&metaIsPTE != 0,
		}
		evicted = true
		c.Stats.Evictions++
		if v.WriteBack {
			c.Stats.WriteBacks++
			c.IssueBus(coherence.BusWriteBack, old)
		}
	}
	c.tags[i] = b
	c.meta[i] = packMeta(state, prot, byWrite, pageDirty, isPTE, byWrite)
	c.Stats.Fills++
	return v, evicted
}

// FlushBlock removes block b from the cache if present, returning whether it
// was present and whether it was written back. This is SPUR's single-block
// flush operation.
func (c *Cache) FlushBlock(b addr.BlockAddr) (present, writtenBack bool) {
	l, ok := c.Probe(b)
	if !ok {
		return false, false
	}
	c.Stats.BlockFlush++
	return true, c.invalidateFrame(uint64(l.i))
}

// invalidateFrame empties frame i, writing the block back if it needs it,
// and reports whether it did.
func (c *Cache) invalidateFrame(i uint64) bool {
	wb := metaNeedsWriteBack(c.meta[i])
	if wb {
		c.Stats.WriteBacks++
		c.IssueBus(coherence.BusWriteBack, c.tags[i])
	}
	c.meta[i] = 0
	return wb
}

// FlushResult summarizes a page flush.
type FlushResult struct {
	// Checked is the number of line frames examined (always 128: one per
	// block of the page).
	Checked int
	// Flushed is the number of valid lines invalidated.
	Flushed int
	// WrittenBack is how many of those required a memory write.
	WrittenBack int
	// Collateral is the number of invalidated lines that belonged to
	// *other* pages — nonzero only for the tag-ignoring flush, whose
	// collateral damage the paper calls out ("blocks from other pages may
	// be unnecessarily flushed").
	Collateral int
}

// FlushPage removes every block of page p from the cache.
//
// If tagCheck is true this is the hypothetical tag-checking flush the paper
// assumes for its FLUSH-policy comparison: each of the page's 128 line
// frames is examined and only lines actually belonging to the page are
// invalidated. If tagCheck is false this is the flush SPUR actually built:
// the 128 frames are flushed regardless of their virtual address tags,
// taking resident blocks of other pages with them.
func (c *Cache) FlushPage(p addr.GVPN, tagCheck bool) FlushResult {
	c.Stats.PageFlush++
	res := FlushResult{Checked: addr.BlocksPerPage}
	first := p.FirstBlock()
	for i := 0; i < addr.BlocksPerPage; i++ {
		b := first + addr.BlockAddr(i)
		fi := c.index(b)
		if c.meta[fi]&metaStateMask == 0 {
			continue
		}
		if tagCheck && c.tags[fi] != b {
			continue
		}
		if c.tags[fi].Page() != p {
			res.Collateral++
		}
		res.Flushed++
		if c.invalidateFrame(fi) {
			res.WrittenBack++
		}
	}
	return res
}

// InvalidateAll empties the cache, writing back dirty blocks, and returns
// the number of write-backs.
func (c *Cache) InvalidateAll() int {
	wb := 0
	for i := range c.meta {
		if c.meta[i]&metaStateMask != 0 && c.invalidateFrame(uint64(i)) {
			wb++
		}
	}
	return wb
}

// CopyFrom makes c's lines and statistics those of src, in c's own arrays.
// The caches must have the same geometry: a fanout split copies a leader's
// cache only into a member configured like it.
func (c *Cache) CopyFrom(src *Cache) {
	if len(src.tags) != len(c.tags) {
		panic(fmt.Sprintf("cache: copy of a %d-line cache into a %d-line one", len(src.tags), len(c.tags)))
	}
	copy(c.tags, src.tags)
	copy(c.meta, src.meta)
	c.Stats = src.Stats
}

// ResidentBlocks returns how many valid blocks of page p are resident, and
// how many of those are clean. The FLUSH cost model's "10% of blocks from
// the page are in cache and are clean" assumption is the paper's estimate of
// exactly this quantity.
func (c *Cache) ResidentBlocks(p addr.GVPN) (resident, clean int) {
	first := p.FirstBlock()
	for i := 0; i < addr.BlocksPerPage; i++ {
		b := first + addr.BlockAddr(i)
		fi := c.index(b)
		if c.meta[fi]&metaStateMask != 0 && c.tags[fi] == b {
			resident++
			if c.meta[fi]&metaBlockDirty == 0 {
				clean++
			}
		}
	}
	return resident, clean
}

// IssueBus broadcasts a bus transaction if a bus is attached. The cache
// issues its own write-backs; the access engine issues read-for-ownership
// on write misses and invalidations on shared write hits.
func (c *Cache) IssueBus(op coherence.BusOp, b addr.BlockAddr) (supplied, invalidated bool) {
	if c.bus != nil {
		supplied, invalidated = c.bus.Issue(c.port, op, b)
	}
	return
}

// Snoop implements coherence.Snooper: the cache watches other controllers'
// transactions and updates its matching line per the Berkeley protocol.
func (c *Cache) Snoop(op coherence.BusOp, b addr.BlockAddr) coherence.SnoopResult {
	l, ok := c.Probe(b)
	if !ok {
		return coherence.SnoopResult{}
	}
	ns, res := coherence.OnSnoop(l.State(), op)
	if ns == coherence.Invalid {
		// Ownership (and the data) transfers over the bus; no memory
		// write-back happens here.
		c.meta[l.i] = 0
	} else {
		l.SetState(ns)
	}
	return res
}

// Utilization returns the fraction of lines currently valid.
func (c *Cache) Utilization() float64 {
	n := 0
	for i := range c.meta {
		if c.meta[i]&metaStateMask != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.meta))
}

// Format describes the cache line layout (Figure 3.2b) as text.
func Format() string {
	return `SPUR Cache Tag Format (Figure 3.2b)
 +----------------------+---+-+-+----+
 |  Virtual Address Tag |PR |P|B| CS |
 +----------------------+---+-+-+----+
  PR = Protection (2 bits)       P = Page Dirty Bit (cached copy)
  B  = Block Dirty Bit           CS = Coherency State (2 bits)`
}
