package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/vm"
)

// Env is what a workload needs from the machine: the pager's virtual-memory
// regions for its processes. The workload numbers the segments they live in
// itself (see segments).
type Env interface {
	// AddRegion registers n pages of the given kind at start.
	AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region
	// ReleaseRegion tears a region down (process exit).
	ReleaseRegion(r vm.Region)
}

// segments allocates a workload's 1 GB segments of the global space: fresh
// ones upward from the first after the kernel's, the last freed reused
// first. A segment number is thus a pure function of the workload's own
// spawns and exits, and the zero value is an empty allocator.
type segments struct {
	fresh addr.SegmentID   // segments handed out fresh so far
	free  []addr.SegmentID // freed segments, reused last-freed first
}

// alloc reserves a segment.
func (s *segments) alloc() addr.SegmentID {
	if n := len(s.free); n > 0 {
		seg := s.free[n-1]
		s.free = s.free[:n-1]
		return seg
	}
	seg := addr.KernelSegment + 1 + s.fresh
	if seg >= addr.PTESegment {
		panic("workload: global segment space exhausted")
	}
	s.fresh++
	return seg
}

// release returns a segment whose regions have all been released.
func (s *segments) release(seg addr.SegmentID) {
	if seg == addr.KernelSegment || seg >= addr.PTESegment {
		panic(fmt.Sprintf("workload: freeing reserved segment %d", seg))
	}
	s.free = append(s.free, seg)
}

// Layout of regions inside a process's private segment, in pages. Each area
// is far larger than any job uses, so regions never collide.
const (
	codeBase  = 0
	dataBase  = 1 << 14 // 16 K pages in
	heapBase  = 1 << 15
	stackBase = 1 << 17
	// heapStride spaces successive heap generations (heap churn) apart.
	heapStride = 1 << 10
)
