// Package addr defines the address types and arithmetic used throughout the
// SPUR memory-system simulator.
//
// SPUR processes see a 32-bit virtual address space. To prevent virtual
// address synonyms, the operating system forces processes that share memory
// to use the same *global* virtual address: the hardware maps the top two
// bits of a process virtual address through one of four per-process segment
// registers into a 38-bit global virtual space, and the cache is indexed and
// tagged with global virtual addresses only [Hill86]. The workload
// generators build global addresses directly from a segment and an offset
// (Global), so this package holds only the global address types and their
// page (4 KB) and cache-block (32 B) arithmetic.
package addr

import "fmt"

// Architectural constants of the SPUR prototype (Table 2.1 of the paper).
const (
	// BlockShift is log2 of the cache block size (32 bytes).
	BlockShift = 5
	// BlockBytes is the cache block size in bytes.
	BlockBytes = 1 << BlockShift
	// PageShift is log2 of the virtual-memory page size (4 Kbytes).
	PageShift = 12
	// PageBytes is the page size in bytes.
	PageBytes = 1 << PageShift
	// BlocksPerPage is the number of cache blocks in one page (128).
	BlocksPerPage = PageBytes / BlockBytes

	// SegmentShift is the bit position where the segment number begins in
	// a global address: each segment is a 1 GB quadrant.
	SegmentShift = 30
	// SegmentMask extracts the within-segment offset of an address.
	SegmentMask = (1 << SegmentShift) - 1

	// GlobalBits is the width of a global virtual address.
	GlobalBits = 38
	// SegmentIDBits is the width of a segment register value: a segment
	// register holds the top GlobalBits-SegmentShift bits of the global
	// address.
	SegmentIDBits = GlobalBits - SegmentShift
	// MaxSegmentID is the largest valid segment register value.
	MaxSegmentID = 1<<SegmentIDBits - 1
)

// Reserved segments of the global virtual space.
const (
	// KernelSegment is reserved for the OS (never allocated to jobs).
	KernelSegment = SegmentID(0)
	// PTESegment holds the first-level page table array.
	PTESegment = SegmentID(MaxSegmentID)
)

// GVA is a 38-bit global virtual address (held in a uint64).
type GVA uint64

// GVPN is a global virtual page number (GVA >> PageShift).
type GVPN uint64

// BlockAddr is a global virtual cache-block address (GVA >> BlockShift).
type BlockAddr uint64

// PFN is a physical frame number.
type PFN uint32

// SegmentID identifies one 1 GB segment of the global virtual space.
type SegmentID uint16

// Page returns the global virtual page number containing g.
func (g GVA) Page() GVPN { return GVPN(g >> PageShift) }

// Block returns the global virtual block address containing g.
func (g GVA) Block() BlockAddr { return BlockAddr(g >> BlockShift) }

// String formats the global address in hex.
func (g GVA) String() string { return fmt.Sprintf("gva:%#x", uint64(g)) }

// Base returns the first global virtual address of the page.
func (p GVPN) Base() GVA { return GVA(p) << PageShift }

// FirstBlock returns the first block address of the page.
func (p GVPN) FirstBlock() BlockAddr { return BlockAddr(p) << (PageShift - BlockShift) }

// Page returns the page containing block b.
func (b BlockAddr) Page() GVPN { return GVPN(b >> (PageShift - BlockShift)) }

// Global constructs a global virtual address from a segment and a
// within-segment offset: what the hardware's segment mapping produces.
// Offsets larger than a segment wrap within it.
func Global(seg SegmentID, offset uint64) GVA {
	return GVA(seg)<<SegmentShift | GVA(offset&SegmentMask)
}

// PageIn returns the n'th page of segment seg.
func PageIn(seg SegmentID, n int) GVPN {
	return Global(seg, uint64(n)<<PageShift).Page()
}
