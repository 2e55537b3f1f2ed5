package addr

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if BlockBytes != 32 {
		t.Errorf("BlockBytes = %d, want 32", BlockBytes)
	}
	if PageBytes != 4096 {
		t.Errorf("PageBytes = %d, want 4096", PageBytes)
	}
	if BlocksPerPage != 128 {
		t.Errorf("BlocksPerPage = %d, want 128", BlocksPerPage)
	}
	if MaxSegmentID != 255 {
		t.Errorf("MaxSegmentID = %d, want 255", MaxSegmentID)
	}
}

func TestPageBlockRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		g := GVA(raw & (1<<GlobalBits - 1))
		p := g.Page()
		b := g.Block()
		if b.Page() != p {
			return false
		}
		if p.Base().Page() != p {
			return false
		}
		// The block's index within its page is consistent with the
		// page-relative offset.
		return b-p.FirstBlock() == BlockAddr(g-p.Base())>>BlockShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageFirstBlock(t *testing.T) {
	p := GVPN(7)
	if got := p.FirstBlock(); got != BlockAddr(7*BlocksPerPage) {
		t.Errorf("FirstBlock = %d, want %d", got, 7*BlocksPerPage)
	}
	// Walking the page's blocks stays within the page.
	for i := 0; i < BlocksPerPage; i++ {
		b := p.FirstBlock() + BlockAddr(i)
		if b.Page() != p {
			t.Fatalf("block %d of page maps to page %d", i, b.Page())
		}
	}
}

func TestGlobalAndPageIn(t *testing.T) {
	g := Global(5, 0x2000)
	if g.Page() != PageIn(5, 2) {
		t.Errorf("Global/PageIn disagree: %v vs %v", g.Page(), PageIn(5, 2))
	}
	if got := Global(5, 1<<SegmentShift); got != Global(5, 0) {
		t.Errorf("Global should wrap offsets within the segment: %#x", uint64(got))
	}
}

// TestTranslatePreservesOffset: the segment translation, Global's
// concatenation of a segment and an offset, keeps the within-segment offset
// and the segment, and fits GlobalBits bits.
func TestTranslatePreservesOffset(t *testing.T) {
	f := func(seg uint8, off uint32) bool {
		g := Global(SegmentID(seg), uint64(off))
		return uint64(g)>>GlobalBits == 0 && uint32(g)&SegmentMask == off&SegmentMask &&
			uint64(g)>>SegmentShift == uint64(seg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGVAString(t *testing.T) {
	if s := GVA(0x1f).String(); s != "gva:0x1f" {
		t.Errorf("String() = %q", s)
	}
}
