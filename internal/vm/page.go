// Package vm implements the Sprite-like virtual memory system the
// experiments run against: address-space regions, demand paging with
// zero-fill, a backing store, and the clock page daemon whose
// reference-bit reads/clears and page-out dirty-bit checks are exactly the
// hooks the paper's policies plug into.
package vm

import "repro/internal/addr"

// PageKind classifies a page for workload realism and reporting.
type PageKind uint8

const (
	// Code pages are read-only executable text, backed by the file system.
	Code PageKind = iota
	// Data pages are initialized writable data, backed by the file system.
	Data
	// Heap pages are zero-fill-on-demand.
	Heap
	// Stack pages are zero-fill-on-demand.
	Stack
)

// String names the kind.
func (k PageKind) String() string {
	switch k {
	case Code:
		return "code"
	case Data:
		return "data"
	case Heap:
		return "heap"
	case Stack:
		return "stack"
	}
	return "page?"
}

// Writable reports whether the kind permits user writes.
func (k PageKind) Writable() bool { return k != Code }

// ZeroFill reports whether first touch creates a zero page instead of
// reading the backing store.
func (k PageKind) ZeroFill() bool { return k == Heap || k == Stack }

// Page is the OS's software state for one virtual page.
type Page struct {
	// VPN is the page's global virtual page number.
	VPN addr.GVPN
	// Kind is the page classification from its region.
	Kind PageKind

	// Resident is true while a frame holds the page.
	Resident bool
	// Frame is the physical frame, valid while Resident.
	Frame addr.PFN

	// OnStore is true once the backing store holds the page's contents
	// (always for file-backed pages; for zero-fill pages only after
	// their first replacement).
	OnStore bool

	// SoftDirty is the operating system's dirty bit for the current
	// residency: set by the dirty-bit fault handler, cleared at page-out.
	SoftDirty bool

	// EverDirtied reports whether any residency of this page was ever
	// modified, for the Table 3.5 style accounting.
	EverDirtied bool

	// prev and next link the page into the clock ring while it is
	// resident; both are nil otherwise.
	prev, next *Page
}

// Writable reports whether user writes to the page are permitted.
func (pg *Page) Writable() bool { return pg.Kind.Writable() }

// Region describes a contiguous range of pages with common attributes,
// registered when a process segment is created.
type Region struct {
	Start addr.GVPN
	N     int
	Kind  PageKind
}

// Contains reports whether the region covers page p.
func (r Region) Contains(p addr.GVPN) bool {
	return p >= r.Start && p < r.Start+addr.GVPN(r.N)
}

// End returns one past the last page.
func (r Region) End() addr.GVPN { return r.Start + addr.GVPN(r.N) }
