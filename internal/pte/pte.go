// Package pte models SPUR page table entries and the two-level page tables
// used by the in-cache address translation mechanism [Wood86].
//
// A page table entry (Figure 3.2a of the paper) holds the physical page
// number plus six attribute fields: PR (protection, 2 bits), C (coherency),
// K (cacheable), D (page dirty bit), R (page referenced bit), and V (page
// valid bit). First-level page tables live in *global virtual* space, so
// PTEs compete with instructions and data for room in the unified cache —
// the cache doubles as a very large TLB. Second-level page tables, which map
// the pages of the first-level tables, are wired down at well-known
// addresses so the cache controller can always reach them directly.
package pte

import (
	"fmt"

	"repro/internal/addr"
)

// Prot is the two-bit page protection field.
type Prot uint8

// Protection levels. The paper's dirty-bit emulation toggles pages between
// ReadOnly and ReadWrite.
const (
	ProtNone      Prot = 0 // no access
	ProtReadOnly  Prot = 1 // reads allowed, writes fault
	ProtReadWrite Prot = 2 // reads and writes allowed
	ProtKernel    Prot = 3 // kernel-only access
)

// String returns the conventional short form of the protection level.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "--"
	case ProtReadOnly:
		return "RO"
	case ProtReadWrite:
		return "RW"
	case ProtKernel:
		return "KR"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// AllowsWrite reports whether user writes are permitted.
func (p Prot) AllowsWrite() bool { return p == ProtReadWrite }

// Entry is a SPUR page table entry, packed as on the hardware:
//
//	bits 31..12  physical page number
//	bits  6..5   PR  protection
//	bit   4      C   coherency required
//	bit   3      K   cacheable
//	bit   2      D   page dirty bit
//	bit   1      R   page referenced bit
//	bit   0      V   page valid bit
type Entry uint32

const (
	bitV Entry = 1 << 0
	bitR Entry = 1 << 1
	bitD Entry = 1 << 2
	bitK Entry = 1 << 3
	bitC Entry = 1 << 4

	protShift = 5
	protMask  = 3 << protShift

	pfnShift = 12
)

// Make builds a valid, cacheable entry for the given frame and protection
// with clear dirty and reference bits.
func Make(pfn addr.PFN, prot Prot) Entry {
	return Entry(pfn)<<pfnShift | Entry(prot)<<protShift | bitK | bitV
}

// Valid reports the V bit.
func (e Entry) Valid() bool { return e&bitV != 0 }

// Referenced reports the page referenced bit R.
func (e Entry) Referenced() bool { return e&bitR != 0 }

// Dirty reports the page dirty bit D.
func (e Entry) Dirty() bool { return e&bitD != 0 }

// Prot returns the two-bit protection field.
func (e Entry) Prot() Prot { return Prot(e&protMask) >> protShift }

// PFN returns the physical frame number.
func (e Entry) PFN() addr.PFN { return addr.PFN(e >> pfnShift) }

// WithReferenced returns e with R set to v.
func (e Entry) WithReferenced(v bool) Entry { return e.set(bitR, v) }

// WithDirty returns e with D set to v.
func (e Entry) WithDirty(v bool) Entry { return e.set(bitD, v) }

// WithProt returns e with the protection field replaced.
func (e Entry) WithProt(p Prot) Entry {
	return e&^protMask | Entry(p)<<protShift
}

func (e Entry) set(bit Entry, v bool) Entry {
	if v {
		return e | bit
	}
	return e &^ bit
}

// String renders the entry in the spirit of Figure 3.2a.
func (e Entry) String() string {
	flag := func(b Entry, c byte) byte {
		if e&b != 0 {
			return c
		}
		return '-'
	}
	return fmt.Sprintf("pfn=%#x PR=%s %c%c%c%c%c",
		e.PFN(), e.Prot(),
		flag(bitC, 'C'), flag(bitK, 'K'), flag(bitD, 'D'), flag(bitR, 'R'), flag(bitV, 'V'))
}
