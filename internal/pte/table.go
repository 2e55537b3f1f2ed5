package pte

import (
	"fmt"

	"repro/internal/addr"
)

// PTESize is the size of one packed entry in bytes. Because PTEs are
// cached like ordinary data, a miss on one PTE brings the other seven of
// its 32-byte block into the cache with it.
const PTESize = 4

// The first-level array is stored as a directory of fixed-size chunks: a
// dense paged image of the logical linear array, holding only the chunks
// with a live entry. Lookup, Set and Update — on the path of every cache
// miss — are then three array indexings, with no hashing and no map
// iteration anywhere near the hot path.
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

// spares holds the last chunk and the last directory a Table freed. Each
// is all zero when freed, so the next Set that needs one takes it instead
// of allocating: a page leaving a 2 MB range while another enters one
// costs no allocation, and a table retains at most 2 KB + 1.25 KB more
// than its live entries need.
type spares struct {
	chunk *chunk
	dir   *dir
}

// Table is the two-level page table for the global virtual space.
//
// The first level is (logically) a linear array of entries indexed by global
// virtual page number, itself living in global virtual space inside a
// reserved segment: the cache controller finds the PTE for page p at virtual
// address PTEAddr(p) by a shift-and-concatenate. The second level maps the
// pages of that array and is wired in physical memory, so the translation
// unit charges a fixed cost for reading it. Table materializes the
// first-level contents chunk by chunk as pages are entered and frees it as
// they leave (the simulator never instantiates the full 256 MB array, but
// what it does instantiate is flat).
type Table struct {
	//spurlint:ignore statecomplete — construction-time configuration (NewTable), not mutated afterwards
	seg  addr.SegmentID // reserved segment holding the first-level array
	dirs [numDirs]*dir
	//spurlint:ignore statecomplete — freed all-zero storage kept for reuse, not table contents: no lookup reads it, and a copy neither copies nor shares it
	spare spares
}

// NewTable returns an empty page table whose first-level array lives in
// segment seg. The segment must not be used for anything else.
func NewTable(seg addr.SegmentID) *Table {
	return &Table{seg: seg}
}

// PTEAddr returns the global virtual address of the first-level entry for
// page p: the shift-and-concatenate circuit of the SPUR cache controller.
func (t *Table) PTEAddr(p addr.GVPN) addr.GVA {
	return addr.Global(t.seg, uint64(p)*PTESize)
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
// and its directory's last chunk the directory, into the table's spares.
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
		if d = t.spare.dir; d != nil {
			t.spare.dir = nil
		} else {
			d = new(dir)
		}
		t.dirs[di] = d
	}
	c := d.chunks[j]
	if c == nil {
		if e == 0 {
			return // clearing an entry that was never set
		}
		if c = t.spare.chunk; c != nil {
			t.spare.chunk = nil
		} else {
			c = new(chunk)
		}
		d.chunks[j] = c
	}
	slot := &c[uint64(p)&chunkMask]
	old := *slot
	*slot = e
	switch {
	case old == 0 && e != 0:
		d.live[j]++
	case old != 0 && e == 0:
		if d.live[j]--; d.live[j] == 0 {
			t.spare.chunk, d.chunks[j] = c, nil
			if d.live == [dirEntries]uint16{} {
				t.spare.dir, t.dirs[di] = d, nil
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

// CopyFrom makes t hold exactly src's entries, in chunks of its own. A
// fanout split copies a leader's table into a member with it. The spares
// are neither copied nor shared: t keeps its own.
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
