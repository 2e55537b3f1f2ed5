package pte

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestMakeDefaults(t *testing.T) {
	e := Make(0x1234, ProtReadOnly)
	if !e.Valid() {
		t.Error("Make entry not valid")
	}
	if e&bitK == 0 {
		t.Error("Make entry not cacheable")
	}
	if e.Dirty() || e.Referenced() {
		t.Error("Make entry should start clean and unreferenced")
	}
	if e.PFN() != 0x1234 {
		t.Errorf("PFN = %#x", e.PFN())
	}
	if e.Prot() != ProtReadOnly {
		t.Errorf("Prot = %v", e.Prot())
	}
}

func TestBitSettersIndependent(t *testing.T) {
	// Property: setting one field never disturbs the others.
	f := func(pfn uint32, protRaw, bits uint8) bool {
		pfn &= 1<<20 - 1
		prot := Prot(protRaw % 4)
		newProt := Prot((bits >> 2) % 4)
		e := Make(addr.PFN(pfn), prot)
		e = e.WithDirty(bits&1 != 0).
			WithReferenced(bits&2 != 0).
			WithProt(newProt)
		return e.PFN() == addr.PFN(pfn) &&
			e.Prot() == newProt &&
			e.Dirty() == (bits&1 != 0) &&
			e.Referenced() == (bits&2 != 0) &&
			e.Valid() && e&bitK != 0 && e&bitC == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWithProtAndPFN: raising a page to read-write, as the dirty-bit
// fault handler does, keeps its frame number and dirty bit.
func TestWithProtAndPFN(t *testing.T) {
	e := Make(7, ProtReadOnly).WithDirty(true)
	e = e.WithProt(ProtReadWrite)
	if e.Prot() != ProtReadWrite || !e.Dirty() || e.PFN() != 7 {
		t.Errorf("WithProt disturbed entry: %v", e)
	}
}

func TestProtSemantics(t *testing.T) {
	if ProtNone.AllowsWrite() || ProtReadOnly.AllowsWrite() {
		t.Error("a read-only or no-access page allows writes")
	}
	if !ProtReadWrite.AllowsWrite() {
		t.Error("ProtReadWrite does not allow writes")
	}
	if ProtKernel.AllowsWrite() {
		t.Error("ProtKernel should not allow user writes")
	}
}

func TestProtString(t *testing.T) {
	for p, want := range map[Prot]string{ProtNone: "--", ProtReadOnly: "RO", ProtReadWrite: "RW", ProtKernel: "KR"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if !strings.Contains(Prot(9).String(), "9") {
		t.Error("invalid prot string")
	}
}

func TestEntryString(t *testing.T) {
	s := Make(0xab, ProtReadWrite).WithDirty(true).String()
	for _, want := range []string{"pfn=0xab", "RW", "D", "V", "K"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestTableLookupSetInvalidate: an entry reads back as set, and storing a
// zero entry, as unmapping a page does, invalidates it.
func TestTableLookupSetInvalidate(t *testing.T) {
	tbl := NewTable(200)
	p := addr.GVPN(42)
	if got := tbl.Lookup(p); got != 0 {
		t.Errorf("untouched entry = %v, want 0", got)
	}
	e := Make(5, ProtReadWrite)
	tbl.Set(p, e)
	if got := tbl.Lookup(p); got != e {
		t.Errorf("Lookup = %v, want %v", got, e)
	}
	if n := len(entries(tbl)); n != 1 {
		t.Errorf("table holds %d entries", n)
	}
	tbl.Set(p, 0)
	if tbl.Lookup(p) != 0 || len(entries(tbl)) != 0 {
		t.Error("entry survived invalidation")
	}
}

func TestTableSetZeroDeletes(t *testing.T) {
	tbl := NewTable(200)
	tbl.Set(1, Make(2, ProtReadOnly))
	tbl.Set(1, 0)
	if d, c := held(tbl); d != 0 || c != 0 {
		t.Errorf("Set(p, 0) should delete: %d directories and %d chunks held", d, c)
	}
}

func TestTableUpdate(t *testing.T) {
	tbl := NewTable(200)
	p := addr.GVPN(9)
	tbl.Set(p, Make(1, ProtReadOnly))
	got := tbl.Update(p, func(e Entry) Entry { return e.WithDirty(true) })
	if !got.Dirty() || !tbl.Lookup(p).Dirty() {
		t.Error("Update did not persist")
	}
}

func TestPTEAddrShiftAndConcatenate(t *testing.T) {
	tbl := NewTable(128)
	// Adjacent pages have adjacent 4-byte entries.
	a0 := tbl.PTEAddr(addr.GVPN(100))
	a1 := tbl.PTEAddr(addr.GVPN(101))
	if a1-a0 != PTESize {
		t.Errorf("adjacent PTEs %d bytes apart", a1-a0)
	}
	// The PTE address lives in the reserved segment.
	if uint64(a0)>>addr.SegmentShift != 128 {
		t.Errorf("PTE not in segment 128: %v", a0)
	}
}

func TestPTEsPerBlock(t *testing.T) {
	if n := addr.BlockBytes / PTESize; n != 8 {
		t.Errorf("a block holds %d PTEs, want 8", n)
	}
}

func TestFormatMentionsAllFields(t *testing.T) {
	s := Format()
	for _, f := range []string{"PR", "C", "K", "D", "R", "V", "Physical Page Number"} {
		if !strings.Contains(s, f) {
			t.Errorf("Format() missing %q", f)
		}
	}
}
