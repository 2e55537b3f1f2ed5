package workload

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fakeEnv implements Env over simple bookkeeping.
type fakeEnv struct {
	regions  map[vm.Region]vm.PageKind
	released []vm.Region
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{regions: map[vm.Region]vm.PageKind{}}
}

func (e *fakeEnv) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	r := vm.Region{Start: start, N: n, Kind: kind}
	for old := range e.regions {
		if r.Start < old.End() && old.Start < r.End() {
			panic(fmt.Sprintf("fakeEnv: overlap %v vs %v", r, old))
		}
	}
	e.regions[r] = kind
	return r
}

func (e *fakeEnv) ReleaseRegion(r vm.Region) {
	if _, ok := e.regions[r]; !ok {
		panic("fakeEnv: release of unknown region")
	}
	delete(e.regions, r)
	e.released = append(e.released, r)
}

func testParams() JobParams {
	return JobParams{
		Name: "t", Refs: 100000,
		CodePages: 8, HotCodeFrac: 0.2,
		DataPages: 16, HeapPages: 4, StackPages: 2,
		PIFetch: 0.5, PJump: 0.05, PFarJump: 0.1,
		PStack: 0.1, PAlloc: 0.1, PScanHeap: 0.1,
		PWritePage: 0.5, WriteRO: 0.3, WriteRMW: 0.2,
		ReadPassWrite: 0.01, PBackWrite: 0.01,
		PSeq: 0.3, PHotData: 0.3, HotDataFrac: 0.25, PHotWrite: 0.3,
		PRevisitWrite: 0.1, WindowPages: 4,
	}
}

func TestJobLifecycle(t *testing.T) {
	env := newFakeEnv()
	var segs segments
	j := newJobWithData(env, &segs, NewRNG(1), testParams(), nil, vm.Region{}, vm.Region{})
	if len(env.regions) != 4 { // code, data, heap, stack
		t.Fatalf("regions = %d, want 4", len(env.regions))
	}
	if j.Done() {
		t.Fatal("fresh job done")
	}
	j.Teardown()
	if len(env.regions) != 0 {
		t.Errorf("%d regions leaked", len(env.regions))
	}
	j.Teardown() // idempotent
	if len(segs.free) != 1 || segs.free[0] != j.seg {
		t.Errorf("segment %d not freed exactly once: free list %v", j.seg, segs.free)
	}
}

func TestJobParamValidation(t *testing.T) {
	cases := []func(*JobParams){
		func(p *JobParams) { p.Refs = 0 },
		func(p *JobParams) { p.DataPages = 0 },
		func(p *JobParams) { p.PIFetch = 1.5 },
		func(p *JobParams) { p.WriteRO, p.WriteRMW = 0.8, 0.5 },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid params accepted", i)
				}
			}()
			newJobWithData(newFakeEnv(), new(segments), NewRNG(1), p, nil, vm.Region{}, vm.Region{})
		}()
	}
}

func TestJobNeedsCode(t *testing.T) {
	p := testParams()
	p.CodePages = 0
	defer func() {
		if recover() == nil {
			t.Error("job with no code accepted")
		}
	}()
	newJobWithData(newFakeEnv(), new(segments), NewRNG(1), p, nil, vm.Region{}, vm.Region{})
}

// drain pulls n references, checking each lands in a region of the job.
func drain(t *testing.T, env *fakeEnv, j *Job, n int) map[vm.PageKind][3]uint64 {
	t.Helper()
	stats := map[vm.PageKind][3]uint64{}
	for i := 0; i < n && !j.Done(); i++ {
		r := j.Step()
		found := false
		for reg, kind := range env.regions {
			if reg.Contains(r.Addr.Page()) {
				s := stats[kind]
				s[r.Op]++
				stats[kind] = s
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ref %d to %v outside every region", i, r.Addr)
		}
	}
	return stats
}

func TestJobReferencesStayInRegions(t *testing.T) {
	env := newFakeEnv()
	j := newJobWithData(env, new(segments), NewRNG(2), testParams(), nil, vm.Region{}, vm.Region{})
	stats := drain(t, env, j, 50000)
	if stats[vm.Code][trace.OpIFetch] == 0 {
		t.Error("no instruction fetches to code")
	}
	if stats[vm.Code][trace.OpWrite] != 0 {
		t.Error("writes to code pages")
	}
	if stats[vm.Data][trace.OpRead] == 0 || stats[vm.Data][trace.OpWrite] == 0 {
		t.Error("data traffic missing")
	}
	if stats[vm.Heap][trace.OpWrite] == 0 {
		t.Error("no heap allocation writes")
	}
	if stats[vm.Stack][trace.OpWrite] == 0 {
		t.Error("no stack writes")
	}
}

func TestJobDoneAfterRefs(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	p.Refs = 500
	j := newJobWithData(env, new(segments), NewRNG(3), p, nil, vm.Region{}, vm.Region{})
	n := 0
	for !j.Done() {
		j.Step()
		n++
		if n > 1000 {
			t.Fatal("job never finished")
		}
	}
	if n != 500 {
		t.Errorf("job emitted %d refs, budget 500", n)
	}
}

func TestHeapChurnAllocatesFreshRegions(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	p.HeapPages = 1 // one page per generation: wraps fast
	p.PAlloc = 0.5
	p.PIFetch = 0.1
	j := newJobWithData(env, new(segments), NewRNG(4), p, nil, vm.Region{}, vm.Region{})
	heapStarts := map[addr.GVPN]bool{}
	for i := 0; i < 30000 && !j.Done(); i++ {
		j.Step()
	}
	for r, kind := range env.regions {
		if kind == vm.Heap {
			heapStarts[r.Start] = true
		}
	}
	if len(env.released) == 0 {
		t.Error("no heap generation was ever released")
	}
	if j.heapGen == 0 {
		t.Error("heap never churned")
	}
}

// TestHeapChurnStaysBelowStack churns far past the slot wrap with
// generations bigger than the slot stride — the configuration that used to
// walk the 96th generation across stackBase into the stack area. The fake
// env panics on any region overlap, and every generation's extent is checked
// against the layout bounds directly.
func TestHeapChurnStaysBelowStack(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	p.HeapPages = heapStride + 200 // generation crosses into the next slot
	p.StackPages = 4               // a stack region to collide with at stackBase
	j := newJobWithData(env, new(segments), NewRNG(4), p, nil, vm.Region{}, vm.Region{})
	segBase := uint64(addr.PageIn(j.seg, 0))
	for gen := 0; gen < 300; gen++ {
		j.newHeapGeneration()
		start := uint64(j.heap.Start) - segBase
		end := uint64(j.heap.End()) - segBase
		if start < heapBase || end > stackBase {
			t.Fatalf("generation %d spans pages [%d,%d), outside the heap area [%d,%d)",
				j.heapGen, start, end, heapBase, stackBase)
		}
	}
	if j.heapGen <= (stackBase-heapBase)/heapStride {
		t.Fatal("churn did not pass the slot wrap")
	}
}

// TestHeapPagesOversizedPanics rejects a generation larger than the whole
// heap area loudly instead of colliding at slot 0.
func TestHeapPagesOversizedPanics(t *testing.T) {
	p := testParams()
	p.HeapPages = stackBase - heapBase + 1
	defer func() {
		if recover() == nil {
			t.Error("oversized HeapPages accepted")
		}
	}()
	newJobWithData(newFakeEnv(), new(segments), NewRNG(1), p, nil, vm.Region{}, vm.Region{})
}

func TestSharedCodeFetched(t *testing.T) {
	env := newFakeEnv()
	shared := env.AddRegion(addr.PageIn(200, 0), 8, vm.Code)
	p := testParams()
	p.CodePages = 0
	p.PFarJump = 0.5
	p.PJump = 0.3
	j := newJobWithData(env, new(segments), NewRNG(5), p, []vm.Region{shared}, vm.Region{}, vm.Region{})
	sawShared := false
	for i := 0; i < 20000 && !j.Done(); i++ {
		r := j.Step()
		if r.Op == trace.OpIFetch && shared.Contains(r.Addr.Page()) {
			sawShared = true
			break
		}
	}
	if !sawShared {
		t.Error("never fetched from the shared image")
	}
	// Teardown must not release the shared image.
	j.Teardown()
	if _, ok := env.regions[shared]; !ok {
		t.Error("job released the shared image")
	}
}

func TestPersistentDataNotReleased(t *testing.T) {
	env := newFakeEnv()
	file := env.AddRegion(addr.PageIn(210, 0), 32, vm.Data)
	p := testParams()
	j := newJobWithData(env, new(segments), NewRNG(6), p, nil, file, vm.Region{})
	for i := 0; i < 1000; i++ {
		j.Step()
	}
	j.Teardown()
	if _, ok := env.regions[file]; !ok {
		t.Error("job released the persistent file region")
	}
}

func TestSourceRegionReadOnly(t *testing.T) {
	env := newFakeEnv()
	src := env.AddRegion(addr.PageIn(220, 0), 32, vm.Code)
	p := testParams()
	p.PSrcRead = 0.8
	j := newJobWithData(env, new(segments), NewRNG(7), p, nil, vm.Region{}, src)
	srcReads := 0
	for i := 0; i < 30000 && !j.Done(); i++ {
		r := j.Step()
		if src.Contains(r.Addr.Page()) {
			if r.Op == trace.OpWrite {
				t.Fatal("write to read-only source region")
			}
			srcReads++
		}
	}
	if srcReads == 0 {
		t.Error("source region never read")
	}
}

func TestWriteMixControllable(t *testing.T) {
	// Read-heavy vs write-heavy parameterizations must order the write
	// fractions accordingly.
	frac := func(pWritePage float64) float64 {
		env := newFakeEnv()
		p := testParams()
		p.PWritePage = pWritePage
		p.PHotWrite = pWritePage / 2
		j := newJobWithData(env, new(segments), NewRNG(8), p, nil, vm.Region{}, vm.Region{})
		writes, total := 0, 0
		for i := 0; i < 40000 && !j.Done(); i++ {
			r := j.Step()
			total++
			if r.Op == trace.OpWrite {
				writes++
			}
		}
		return float64(writes) / float64(total)
	}
	lo, hi := frac(0.05), frac(0.9)
	if lo >= hi {
		t.Errorf("write fraction not monotone in PWritePage: %.3f vs %.3f", lo, hi)
	}
}
