package pte

import (
	"fmt"

	"repro/internal/addr"
)

// PTESize is the size of one packed entry in bytes.
const PTESize = 4

// PTEsPerBlock is how many entries share one cache block. Because PTEs are
// cached like ordinary data, a miss on one PTE brings its seven neighbours
// into the cache with it.
const PTEsPerBlock = addr.BlockBytes / PTESize

// The first-level array is stored as a directory of fixed-size chunks: a
// dense paged image of the logical linear array, holding only the chunks
// with a live entry. Lookup, Set and Update — on the path of every cache
// miss — are then three array indexings, with no hashing and no map
// iteration anywhere near the hot path, and Range walks the chunks in
// address order so iteration is deterministic by construction rather than
// by sorting.
const (
	// chunkShift gives 512 entries (2 KB, one heap size class) per chunk,
	// mapping 2 MB of virtual memory: about the span of one process
	// region, so a machine holds little more than its live entries.
	chunkShift   = 9
	chunkEntries = 1 << chunkShift
	chunkMask    = chunkEntries - 1
	// maxGVPN bounds the global page number: 38-bit global addresses over
	// 4 KB pages. The directory covers the whole space.
	maxGVPN   = 1 << (addr.GlobalBits - addr.PageShift)
	numChunks = maxGVPN / chunkEntries
	// The chunk directory is itself two-level: a flat [numChunks]*chunk
	// array would be 1 MB of pointers embedded in every Table, zeroed at
	// construction and walked by every GC scan. Splitting it 1024×128
	// keeps the embedded top level at 8 KB and allocates a directory
	// (1280 bytes, one heap size class) only for each 256 MB range
	// actually mapped.
	dirShift   = 7
	dirEntries = 1 << dirShift
	dirMask    = dirEntries - 1
	numDirs    = numChunks / dirEntries
)

type chunk [chunkEntries]Entry

// dir maps dirEntries consecutive chunks. live[i] counts chunk i's
// non-zero entries: the chunk is freed when it drops to zero, and the
// directory when its last chunk goes.
type dir struct {
	chunks [dirEntries]*chunk
	live   [dirEntries]uint16
}

// Table is the two-level page table for the global virtual space.
//
// The first level is (logically) a linear array of entries indexed by global
// virtual page number, itself living in global virtual space inside a
// reserved segment: the cache controller finds the PTE for page p at virtual
// address PTEAddr(p) by a shift-and-concatenate. The second level maps the
// pages of that array and is wired in physical memory; Table exposes the
// second-level address computation so the translation unit can account for
// its accesses, and materializes the first-level contents chunk by chunk as
// pages are entered and frees it as they leave (the simulator never
// instantiates the full 256 MB array, but what it does instantiate is
// flat).
type Table struct {
	//spurlint:ignore statecomplete — construction-time configuration (NewTable), not mutated afterwards
	seg  addr.SegmentID // reserved segment holding the first-level array
	dirs [numDirs]*dir
	n    int // count of non-zero entries
}

// NewTable returns an empty page table whose first-level array lives in
// segment seg. The segment must not be used for anything else.
func NewTable(seg addr.SegmentID) *Table {
	return &Table{seg: seg}
}

// Segment returns the reserved PTE segment.
func (t *Table) Segment() addr.SegmentID { return t.seg }

// PTEAddr returns the global virtual address of the first-level entry for
// page p: the shift-and-concatenate circuit of the SPUR cache controller.
func (t *Table) PTEAddr(p addr.GVPN) addr.GVA {
	return addr.Global(t.seg, uint64(p)*PTESize)
}

// PTEPage returns the global virtual page of the first-level table that
// holds the entry for p. Used to decide which second-level entry maps it.
func (t *Table) PTEPage(p addr.GVPN) addr.GVPN {
	return t.PTEAddr(p).Page()
}

// L2Index returns the index of the wired second-level entry that maps the
// first-level page holding p's entry.
func (t *Table) L2Index(p addr.GVPN) uint64 {
	return uint64(p) / (addr.PageBytes / PTESize)
}

// Lookup returns the entry for page p. A page that has never been entered
// reads as an all-zero (invalid) entry, exactly like untouched page-table
// memory. A page number outside the 38-bit global space has no table slot
// and reads as invalid too.
func (t *Table) Lookup(p addr.GVPN) Entry {
	ci := uint64(p) >> chunkShift
	if ci >= numChunks {
		return 0
	}
	d := t.dirs[ci>>dirShift]
	if d == nil {
		return 0
	}
	c := d.chunks[ci&dirMask]
	if c == nil {
		return 0
	}
	return c[uint64(p)&chunkMask]
}

// Set stores the entry for page p. Setting an entry for a page outside the
// global space is a hard error: no address computation can have produced it,
// so it means a corrupt caller, and storing it silently would make Lookup
// lie about table contents. Clearing a chunk's last entry frees the chunk,
// and its directory's last chunk the directory.
func (t *Table) Set(p addr.GVPN, e Entry) {
	ci := uint64(p) >> chunkShift
	if ci >= numChunks {
		panic(fmt.Sprintf("pte: page %#x outside the %d-bit global space", uint64(p), addr.GlobalBits))
	}
	di, j := ci>>dirShift, ci&dirMask
	d := t.dirs[di]
	if d == nil {
		if e == 0 {
			return // clearing an entry that was never set
		}
		d = new(dir)
		t.dirs[di] = d
	}
	c := d.chunks[j]
	if c == nil {
		if e == 0 {
			return // clearing an entry that was never set
		}
		c = new(chunk)
		d.chunks[j] = c
	}
	slot := &c[uint64(p)&chunkMask]
	old := *slot
	*slot = e
	switch {
	case old == 0 && e != 0:
		t.n++
		d.live[j]++
	case old != 0 && e == 0:
		t.n--
		if d.live[j]--; d.live[j] == 0 {
			d.chunks[j] = nil
			if d.live == [dirEntries]uint16{} {
				t.dirs[di] = nil
			}
		}
	}
}

// Update applies fn to the entry for page p and stores the result, returning
// the new value. This models the software fault handler's read-modify-write
// of the PTE.
func (t *Table) Update(p addr.GVPN, fn func(Entry) Entry) Entry {
	e := fn(t.Lookup(p))
	t.Set(p, e)
	return e
}

// Invalidate clears the entry for page p, returning the old value.
func (t *Table) Invalidate(p addr.GVPN) Entry {
	old := t.Lookup(p)
	if old != 0 {
		t.Set(p, 0)
	}
	return old
}

// Len returns the number of valid (non-zero) entries.
func (t *Table) Len() int { return t.n }

// Range calls fn for every non-zero entry until fn returns false, in
// ascending page order. The chunked array iterates in address order by
// construction, so auditors, dumps and page-out scans observe the same
// entry order on every run — the byte-identical-replay contract the
// experiment store depends on — without the sort the old sparse map needed.
func (t *Table) Range(fn func(addr.GVPN, Entry) bool) {
	for di, d := range &t.dirs {
		if d == nil {
			continue
		}
		for cj, c := range &d.chunks {
			if c == nil {
				continue
			}
			base := addr.GVPN(uint64(di*dirEntries+cj) << chunkShift)
			for i, e := range c {
				if e == 0 {
					continue
				}
				if !fn(base+addr.GVPN(i), e) {
					return
				}
			}
		}
	}
}

// CopyFrom makes t hold exactly src's entries, in chunks of its own. A
// fanout split copies a leader's table into a member with it.
func (t *Table) CopyFrom(src *Table) {
	for di, sd := range &src.dirs {
		if sd == nil {
			t.dirs[di] = nil
			continue
		}
		d := &dir{live: sd.live}
		for j, sc := range &sd.chunks {
			if sc != nil {
				c := new(chunk)
				*c = *sc
				d.chunks[j] = c
			}
		}
		t.dirs[di] = d
	}
	t.n = src.n
}

// Format describes the entry layout (Figure 3.2a) as text, for cmd/tables.
func Format() string {
	return `SPUR Page Table Entry Format (Figure 3.2a)
  31                     12  6 5 4 3 2 1 0
 +--------------------------+---+-+-+-+-+-+
 |   Physical Page Number   |PR |C|K|D|R|V|
 +--------------------------+---+-+-+-+-+-+
  PR = Protection (2 bits)   C = Coherency   K = Cacheable
  D = Page Dirty Bit         R = Page Referenced Bit        V = Page Valid Bit`
}

// CheckSegmentFits panics if the first-level array cannot fit in one
// segment; with 38-bit global addresses and 4-byte entries it always can,
// and this guard documents the invariant the address computation relies on.
func CheckSegmentFits() {
	if uint64(maxGVPN)*PTESize > 1<<addr.SegmentShift {
		panic(fmt.Sprintf("pte: first-level table (%d bytes) exceeds a segment", uint64(maxGVPN)*PTESize))
	}
}

func init() { CheckSegmentFits() }
