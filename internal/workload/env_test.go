package workload

import (
	"testing"

	"repro/internal/addr"
)

func TestSegmentAllocator(t *testing.T) {
	var segs segments
	s1 := segs.alloc()
	s2 := segs.alloc()
	if s1 == s2 {
		t.Fatal("duplicate segments")
	}
	if s1 == addr.KernelSegment || s1 == addr.PTESegment {
		t.Fatal("allocator handed out a reserved segment")
	}
	segs.release(s1)
	if got := segs.alloc(); got != s1 {
		t.Errorf("freed segment not reused: got %d want %d", got, s1)
	}
}

func TestSegmentFreeReservedPanics(t *testing.T) {
	var segs segments
	for _, s := range []addr.SegmentID{addr.KernelSegment, addr.PTESegment} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("freeing reserved segment %d did not panic", s)
				}
			}()
			segs.release(s)
		}()
	}
}

func TestSegmentExhaustion(t *testing.T) {
	var segs segments
	for i := 0; i < int(addr.PTESegment)-1; i++ {
		segs.alloc()
	}
	defer func() {
		if recover() == nil {
			t.Error("exhaustion did not panic")
		}
	}()
	segs.alloc()
}
