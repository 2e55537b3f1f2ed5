package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/vm"
)

// JobParams parameterises one synthetic process. The defaults of each
// workload constructor were calibrated so the runs land in the paper's
// measured ranges; the fields exist so experiments can explore beyond them.
type JobParams struct {
	Name string
	// Refs is the job's length in memory references.
	Refs int64

	// CodePages is private code; SharedCode (on the Job) adds shared
	// images. HotCodeFrac is the fraction of all code blocks forming the
	// inner-loop set.
	CodePages   int
	HotCodeFrac float64
	// DataPages is the file-backed initialized data footprint.
	DataPages int
	// HeapPages is the size of one heap generation (zero-fill pages).
	HeapPages int
	// StackPages is the zero-fill stack.
	StackPages int

	// PIFetch is the probability a reference is an instruction fetch;
	// PJump the chance an ifetch jumps instead of advancing; PFarJump
	// the chance a jump leaves the hot set.
	PIFetch  float64
	PJump    float64
	PFarJump float64

	// Composition of data operations.
	PStack    float64 // stack push/pop traffic
	PAlloc    float64 // heap allocation (fresh zero-fill blocks, written first)
	PScanHeap float64 // scans target live heap instead of the data region

	// Scan passes are page-granular, reflecting the paper's observation
	// that "pages that will be modified are modified quickly": when the
	// cursor enters a page it either makes a writing pass (probability
	// PWritePage) — the page is dirtied almost immediately — or a reading
	// pass, which leaves the page clean save for rare leakage writes.
	PWritePage float64
	// Writing-pass block intents: WriteRO reads the block only, WriteRMW
	// reads then writes it, the remainder writes outright.
	WriteRO  float64
	WriteRMW float64
	// ReadPassWrite is the chance a reading-pass block is written anyway.
	ReadPassWrite float64
	// RandomStart begins the data cursor at a random page instead of the
	// region head. Successive instances of a command then work over
	// different parts of their persistent files, as a developer touching
	// different sources build after build.
	RandomStart bool
	// PSrcRead is the fraction of scans that read the job's read-only
	// source region (when it has one) instead of its writable data.
	// Sources reached through the file cache are never writable-mapped,
	// so they are outside Table 3.5's "potentially modified" population.
	PSrcRead float64
	// PBackWrite is the chance a writing-pass block operation instead
	// rewrites one of the page's opening blocks, which were read (and
	// cached clean) before the page's first write. These rewrites are
	// precisely the stale-block writes behind N_ef = N_dm, so this knob
	// calibrates the excess-fault fraction directly.
	PBackWrite float64
	// PSeq is the chance a scan advances the sequential cursor; the
	// remainder revisits a random block in the trailing window.
	PSeq float64
	// PHotData sends that fraction of revisits to a fixed hot subset of
	// the data region (the first HotDataFrac of its pages) instead of the
	// trailing window. Real programs reuse a skewed subset of their data;
	// without this, a cyclic scan defeats any replacement policy equally
	// at every memory size.
	PHotData    float64
	HotDataFrac float64
	// PHotWrite is the chance a hot-subset revisit writes. Hot data
	// (symbol tables, central structures) is updated early and often, so
	// a freshly paged-in hot page is re-dirtied before many of its blocks
	// can be cached clean.
	PHotWrite float64
	// PRevisitWrite is the chance a revisit writes (previously read
	// blocks being modified later: the source of N_w-hit blocks and, on
	// pages already dirtied, of excess faults).
	PRevisitWrite float64
	// WindowPages is the revisit window behind the cursor.
	WindowPages int
}

// valid panics on nonsensical parameters, with the field named.
func (p JobParams) valid() {
	switch {
	case p.Refs <= 0:
		panic("workload: job Refs must be positive")
	case p.DataPages <= 0:
		panic("workload: job needs data pages")
	case p.PIFetch < 0 || p.PIFetch >= 1:
		panic("workload: PIFetch out of range")
	case p.WriteRO+p.WriteRMW > 1:
		panic("workload: writing-pass intents exceed 1")
	case p.HeapPages > stackBase-heapBase:
		panic(fmt.Sprintf("workload: HeapPages %d exceeds the %d-page heap area below the stack",
			p.HeapPages, stackBase-heapBase))
	}
}

// Job is a running synthetic process: a proc.Runner generating its
// reference stream and owning its regions.
type Job struct {
	p    JobParams
	env  Env
	segs *segments
	rng  RNG
	seg  addr.SegmentID
	thr  jobThresholds

	code    vm.Region // private code, N may be 0
	data    vm.Region
	ownData bool      // data is private (released at exit) vs persistent
	src     vm.Region // read-only persistent sources, N may be 0
	heap    vm.Region
	stack   vm.Region

	// codeRuns flattens private code, then the shared images (owned by
	// the script, not released at exit), into one block-index space.
	codeRuns   []codeRun
	codeBlocks int // total code blocks including shared
	hotBlocks  int
	codeIdx    int

	heapGen    int
	heapCursor int // next fresh heap block within the generation

	dataCursor int
	writePass  bool // the cursor's current page is being written
	readLen    int  // blocks read at the top of a writing pass
	srcCursor  int

	pending [8]trace.Rec
	npend   int

	refsLeft int64
	released bool
}

// jobThresholds holds the job's probabilities as RNG.Hit thresholds,
// converted once at construction instead of on every draw. stack and
// stackOrAlloc bound dataOp's single draw, writeRO and writeROorRMW the
// writing-pass intent draw in scan; a threshold compared with the raw
// 53-bit draw decides exactly what Float64() compared with p would.
type jobThresholds struct {
	ifetch, jump, farJump, scanHeap, srcRead, seq, hotData      uint64
	writePage, readPassWrite, backWrite, hotWrite, revisitWrite uint64
	stack, stackOrAlloc, writeRO, writeROorRMW                  uint64
}

func newJobThresholds(p JobParams) jobThresholds {
	return jobThresholds{
		ifetch: Threshold(p.PIFetch), jump: Threshold(p.PJump), farJump: Threshold(p.PFarJump),
		scanHeap: Threshold(p.PScanHeap), srcRead: Threshold(p.PSrcRead),
		seq: Threshold(p.PSeq), hotData: Threshold(p.PHotData),
		writePage: Threshold(p.PWritePage), readPassWrite: Threshold(p.ReadPassWrite),
		backWrite: Threshold(p.PBackWrite), hotWrite: Threshold(p.PHotWrite),
		revisitWrite: Threshold(p.PRevisitWrite),
		stack:        Threshold(p.PStack), stackOrAlloc: Threshold(p.PStack + p.PAlloc),
		writeRO: Threshold(p.WriteRO), writeROorRMW: Threshold(p.WriteRO + p.WriteRMW),
	}
}

// The fixed behavioural probabilities: a stack op writes, a heap re-touch
// reads, a hot-data update reads first.
var (
	thrStackWrite = Threshold(0.7)
	thrHeapRead   = Threshold(0.8)
	thrHotRMW     = Threshold(0.35)
)

// newJobWithData creates a process: allocates its segment from segs and
// registers its regions, optionally working on a persistent (script-owned)
// data region instead of a fresh private one. When persistent.N > 0 its
// size overrides p.DataPages and the region survives the job, modelling
// repeated commands over the same cached files.
func newJobWithData(env Env, segs *segments, rng *RNG, p JobParams, shared []vm.Region, persistent, source vm.Region) *Job {
	if persistent.N > 0 {
		p.DataPages = persistent.N
	}
	p.valid()
	j := &Job{
		p: p, env: env, segs: segs, rng: *rng.Fork(), seg: segs.alloc(),
		thr: newJobThresholds(p), src: source, refsLeft: p.Refs,
	}
	if source.N > 0 {
		j.srcCursor = j.rng.Intn(source.N) * addr.BlocksPerPage
	}
	if p.CodePages > 0 {
		j.code = env.AddRegion(addr.PageIn(j.seg, codeBase), p.CodePages, vm.Code)
	}
	if persistent.N > 0 {
		j.data = persistent
	} else {
		j.data = env.AddRegion(addr.PageIn(j.seg, dataBase), p.DataPages, vm.Data)
		j.ownData = true
	}
	if p.HeapPages > 0 {
		j.heap = env.AddRegion(addr.PageIn(j.seg, heapBase), p.HeapPages, vm.Heap)
	}
	if p.StackPages > 0 {
		j.stack = env.AddRegion(addr.PageIn(j.seg, stackBase), p.StackPages, vm.Stack)
	}
	for _, r := range append([]vm.Region{j.code}, shared...) {
		if r.N > 0 {
			// base is offset back by the run's first index, so that
			// base + idx*BlockBytes addresses block idx-start of r
			// (modulo 2^64, which GVA arithmetic is).
			base := r.Start.Base() - addr.GVA(j.codeBlocks*addr.BlockBytes)
			j.codeBlocks += r.N * addr.BlocksPerPage
			j.codeRuns = append(j.codeRuns, codeRun{end: j.codeBlocks, base: base})
		}
	}
	if j.codeBlocks == 0 {
		panic("workload: job has no code to fetch")
	}
	j.hotBlocks = int(float64(j.codeBlocks) * p.HotCodeFrac)
	if j.hotBlocks < 1 {
		j.hotBlocks = 1
	}
	if p.RandomStart {
		j.dataCursor = j.rng.Intn(p.DataPages) * addr.BlocksPerPage
	}
	return j
}

// Done implements proc.Runner.
func (j *Job) Done() bool { return j.refsLeft <= 0 }

// Teardown releases the job's private regions and segment. The script calls
// it from the scheduler's exit hook.
func (j *Job) Teardown() {
	if j.released {
		return
	}
	j.released = true
	if j.code.N > 0 {
		j.env.ReleaseRegion(j.code)
	}
	if j.ownData {
		j.env.ReleaseRegion(j.data)
	}
	if j.heap.N > 0 {
		j.env.ReleaseRegion(j.heap)
	}
	if j.stack.N > 0 {
		j.env.ReleaseRegion(j.stack)
	}
	j.segs.release(j.seg)
}

// StepHorizon implements proc.Horizoned: a lower bound on how many Step
// calls are guaranteed to neither release a region nor run past Done. The
// only release inside Step is heap generation turnover, reachable only when
// no pending references remain and the generation is exhausted. Let
// Φ = npend + (heap blocks − heapCursor): a turnover step requires Φ ≤ 0,
// and no Step decreases Φ by more than one — a pending pop takes one from
// npend, an allocation takes one block but pushes at least one pending
// write, every other operation leaves Φ level or higher. So Φ steps are
// always safe, and refsLeft bounds Done the same way (each Step consumes
// exactly one reference). Under-estimating (the RNG may never pick an
// allocation) only costs the batching scheduler an occasional extra flush.
func (j *Job) StepHorizon() int64 {
	h := j.refsLeft
	if j.p.PAlloc > 0 && j.heap.N > 0 {
		if phi := int64(j.npend) + int64(j.heap.N*addr.BlocksPerPage-j.heapCursor); phi < h {
			h = phi
		}
	}
	return h
}

// Step implements proc.Runner.
func (j *Job) Step() trace.Rec {
	j.refsLeft--
	if j.npend > 0 {
		j.npend--
		return j.pending[j.npend]
	}
	if j.rng.Hit(j.thr.ifetch) {
		return trace.Rec{Op: trace.OpIFetch, Addr: j.ifetch()}
	}
	j.dataOp()
	j.npend--
	return j.pending[j.npend]
}

// StepBatch implements proc.BatchStepper: it emits exactly the records
// len(buf) successive Step calls would, stamped with pid, in one concrete
// call. The caller bounds len(buf) by StepHorizon, which is what lets the
// loop skip the per-step Done and turnover checks.
func (j *Job) StepBatch(buf []trace.Rec, pid int32) {
	j.refsLeft -= int64(len(buf))
	for i := range buf {
		var r trace.Rec
		switch {
		case j.npend > 0:
			j.npend--
			r = j.pending[j.npend]
		case j.rng.Hit(j.thr.ifetch):
			r = trace.Rec{Op: trace.OpIFetch, Addr: j.ifetch()}
		default:
			j.dataOp()
			j.npend--
			r = j.pending[j.npend]
		}
		r.PID = pid
		buf[i] = r
	}
}

// push stacks a pending reference (LIFO; pushers push in reverse order).
func (j *Job) push(op trace.Op, a addr.GVA) {
	j.pending[j.npend] = trace.Rec{Op: op, Addr: a}
	j.npend++
}

// codeRun is one region of the job's code-block index space: the indices
// below end and at or above the previous run's end.
type codeRun struct {
	end  int
	base addr.GVA
}

// codeAddr maps a code-block index to its address, walking private code
// first, then the shared images.
func (j *Job) codeAddr(idx int) addr.GVA {
	for _, r := range j.codeRuns {
		if idx < r.end {
			return r.base + addr.GVA(idx*addr.BlockBytes)
		}
	}
	panic("workload: code index out of range")
}

// ifetch advances the instruction stream and returns the fetched address.
func (j *Job) ifetch() addr.GVA {
	if j.rng.Hit(j.thr.jump) {
		if j.rng.Hit(j.thr.farJump) {
			j.codeIdx = j.rng.Intn(j.codeBlocks)
		} else {
			j.codeIdx = j.rng.Intn(j.hotBlocks)
		}
	} else {
		j.codeIdx++
		if j.codeIdx >= j.hotBlocks {
			// The common loop wraps within the hot set.
			j.codeIdx = 0
		}
	}
	return j.codeAddr(j.codeIdx)
}

// dataOp enqueues one or two data references.
func (j *Job) dataOp() {
	u := j.rng.Uint64() >> 11 // Float64's 53 bits, unscaled
	switch {
	case u < j.thr.stack && j.stack.N > 0:
		j.stackOp()
	case u < j.thr.stackOrAlloc && j.heap.N > 0:
		j.alloc()
	case j.rng.Hit(j.thr.scanHeap) && j.heapCursor > 0:
		j.heapTouch()
	case j.src.N > 0 && j.rng.Hit(j.thr.srcRead):
		j.srcScan()
	default:
		j.scan()
	}
}

// srcScan reads the job's read-only source region: a sequential walk with
// hot-subset revisits, never writing.
func (j *Job) srcScan() {
	nblocks := j.src.N * addr.BlocksPerPage
	var blk int
	switch {
	case j.rng.Hit(j.thr.seq):
		j.srcCursor++
		if j.srcCursor >= nblocks {
			j.srcCursor = 0
		}
		blk = j.srcCursor
	case j.rng.Hit(j.thr.hotData):
		hot := int(float64(nblocks) * j.p.HotDataFrac)
		if hot < 1 {
			hot = 1
		}
		blk = j.rng.Intn(hot)
	default:
		w := min(j.p.WindowPages*addr.BlocksPerPage, nblocks)
		if w < 1 {
			w = 1
		}
		blk = j.srcCursor - j.rng.Intn(w)
		if blk < 0 {
			blk += nblocks
		}
	}
	a := j.src.Start.Base() + addr.GVA(blk*addr.BlockBytes)
	for k := j.rng.Range(2, 4); k > 0; k-- {
		j.push(trace.OpRead, a)
	}
}

// stackOp models push/pop traffic near the stack top: mostly writes, to a
// small set of zero-fill pages.
func (j *Job) stackOp() {
	hot := min(j.stack.N, 2) * addr.BlocksPerPage
	a := j.stack.Start.Base() + addr.GVA(j.rng.Intn(hot)*addr.BlockBytes)
	if j.rng.Hit(thrStackWrite) {
		j.push(trace.OpWrite, a)
	} else {
		j.push(trace.OpRead, a)
	}
}

// alloc writes the next fresh heap block; exhausting a generation releases
// it and starts a new one (heap churn — each generation is fresh zero-fill
// pages, the N_zfod engine).
func (j *Job) alloc() {
	if j.heapCursor >= j.heap.N*addr.BlocksPerPage {
		j.newHeapGeneration()
	}
	a := j.heap.Start.Base() + addr.GVA(j.heapCursor*addr.BlockBytes)
	j.heapCursor++
	// Initializing stores fill several words of the fresh block.
	for k := j.rng.Range(2, 3); k > 0; k-- {
		j.push(trace.OpWrite, a)
	}
}

func (j *Job) newHeapGeneration() {
	j.env.ReleaseRegion(j.heap)
	j.heapGen++
	// Generations cycle through a fixed set of slots; a slot's previous
	// occupant has always been released by then. The slot count is derived
	// from the generation size, not just the stride: the last slot's
	// generation must still end at or below stackBase, or a HeapPages
	// larger than the stride would walk the 96th-odd generation into the
	// stack area — silently, whenever the job has no stack region there to
	// collide with. (valid() has already rejected generations larger than
	// the whole heap area, so slots >= 1.)
	slots := (stackBase - heapBase - j.p.HeapPages) / heapStride
	slot := j.heapGen % (slots + 1)
	j.heap = j.env.AddRegion(addr.PageIn(j.seg, heapBase+slot*heapStride), j.p.HeapPages, vm.Heap)
	j.heapCursor = 0
}

// heapTouch re-references live heap data (reads mostly; the mutator updates
// some objects in place).
func (j *Job) heapTouch() {
	blk := j.rng.Intn(j.heapCursor)
	a := j.heap.Start.Base() + addr.GVA(blk*addr.BlockBytes)
	if j.rng.Hit(thrHeapRead) {
		j.push(trace.OpRead, a)
	} else {
		j.push(trace.OpWrite, a)
	}
}

// scan walks the data region: mostly a sequential cursor with fresh-block
// intents, with occasional revisits into the trailing window.
func (j *Job) scan() {
	nblocks := j.data.N * addr.BlocksPerPage
	if j.rng.Hit(j.thr.seq) {
		prevPage := j.dataCursor / addr.BlocksPerPage
		j.dataCursor++
		if j.dataCursor >= nblocks {
			j.dataCursor = 0
		}
		if j.dataCursor/addr.BlocksPerPage != prevPage {
			// Entering a new page: decide whether this pass writes it,
			// and how many opening blocks it examines before writing.
			j.writePass = j.rng.Hit(j.thr.writePage)
			j.readLen = j.rng.Range(1, 3)
		}
		posInPage := j.dataCursor % addr.BlocksPerPage
		a := j.data.Start.Base() + addr.GVA(j.dataCursor*addr.BlockBytes)
		// Word-level spatial locality: a program touches several words
		// of a block, not one — the pending ops replay the block a few
		// times (LIFO, so writes are pushed first to come out last).
		if !j.writePass {
			if j.rng.Hit(j.thr.readPassWrite) {
				j.push(trace.OpWrite, a)
			}
			for k := j.rng.Range(3, 6); k > 0; k-- {
				j.push(trace.OpRead, a)
			}
			return
		}
		if posInPage < j.readLen {
			// A writing pass opens by examining the page: these blocks
			// are cached while the page is still clean.
			for k := j.rng.Range(2, 4); k > 0; k-- {
				j.push(trace.OpRead, a)
			}
			return
		}
		if j.rng.Hit(j.thr.backWrite) {
			// Update one of the opening blocks examined earlier: the
			// stale-block write that FAULT pays an excess fault for and
			// SPUR a dirty-bit miss.
			pageStart := j.dataCursor - posInPage
			back := j.data.Start.Base() + addr.GVA((pageStart+j.rng.Intn(j.readLen))*addr.BlockBytes)
			j.push(trace.OpWrite, back)
			return
		}
		u := j.rng.Uint64() >> 11
		switch {
		case u < j.thr.writeRO:
			for k := j.rng.Range(2, 4); k > 0; k-- {
				j.push(trace.OpRead, a)
			}
		case u < j.thr.writeROorRMW:
			// Read-modify-write of the block's contents.
			for k := j.rng.Range(1, 2); k > 0; k-- {
				j.push(trace.OpWrite, a)
			}
			for k := j.rng.Range(1, 2); k > 0; k-- {
				j.push(trace.OpRead, a)
			}
		default:
			for k := j.rng.Range(1, 3); k > 0; k-- {
				j.push(trace.OpWrite, a)
			}
		}
		return
	}
	// Revisit: either the region's hot subset or the trailing window.
	if hot := int(float64(nblocks) * j.p.HotDataFrac); hot > 0 && j.rng.Hit(j.thr.hotData) {
		a := j.data.Start.Base() + addr.GVA(j.rng.Intn(hot)*addr.BlockBytes)
		if j.rng.Hit(j.thr.hotWrite) {
			// Updates of hot structures sometimes examine before
			// storing (read-modify-write), like any table update.
			j.push(trace.OpWrite, a)
			if j.rng.Hit(thrHotRMW) {
				j.push(trace.OpRead, a)
			}
		} else {
			j.push(trace.OpRead, a)
		}
		return
	}
	var blk int
	{
		w := min(j.p.WindowPages*addr.BlocksPerPage, nblocks)
		if w < 1 {
			w = 1
		}
		blk = j.dataCursor - j.rng.Intn(w)
		if blk < 0 {
			blk += nblocks
		}
	}
	a := j.data.Start.Base() + addr.GVA(blk*addr.BlockBytes)
	if j.rng.Hit(j.thr.revisitWrite) {
		j.push(trace.OpWrite, a)
	} else {
		j.push(trace.OpRead, a)
	}
}
