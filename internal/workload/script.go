package workload

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
)

// sortedNames returns the map's keys in ascending order, so region creation
// and validation visit spec entries in a replay-stable sequence.
func sortedNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// JobSpec names a job template within a script.
type JobSpec struct {
	Params JobParams
	// Shared lists shared code images (program text shared between
	// processes — the compiler, the editor) the job executes from.
	Shared []string
	// PersistentData, if non-empty, names a script-owned file-backed
	// data region the job works on instead of private data. Repeated
	// instances of the same command touch the same file pages — the
	// Sprite file cache keeps them in memory between runs, so a
	// recompile does not re-read the world from disk.
	PersistentData string
	// PersistentSource, if non-empty, names a script-owned *read-only*
	// region (an ROFiles entry) the job reads through PSrcRead scans.
	PersistentSource string
}

// MonitorSpec is a small job respawned periodically (WORKLOAD1's two
// performance monitor programs).
type MonitorSpec struct {
	Spec JobSpec
	// Period is the respawn interval in global references.
	Period int64
}

// Spec is a whole workload: shared images, persistent file regions,
// long-running background jobs, a cyclic foreground command sequence, and
// periodic monitors.
type Spec struct {
	Name string
	// Images maps shared code image names to their sizes in pages.
	Images map[string]int
	// Files maps persistent data region names to their sizes in pages.
	Files map[string]int
	// ROFiles maps persistent read-only region names (file-cache-resident
	// sources, never writable-mapped) to their sizes in pages.
	ROFiles map[string]int
	// Background jobs run for the whole experiment.
	Background []JobSpec
	// Foreground jobs run one at a time, cycling forever.
	Foreground []JobSpec
	// Monitors respawn periodically.
	Monitors []MonitorSpec
	// Quantum is the scheduler time slice in references.
	Quantum int
}

// Script drives a Spec: it owns the shared images and persistent regions,
// spawns and reaps jobs, and implements trace.Source.
type Script struct {
	spec Spec
	env  Env
	segs segments
	rng  *RNG

	sched   *proc.Scheduler
	nextPID int32

	images map[string]vm.Region
	files  map[string]vm.Region

	jobs map[*proc.Task]*taskInfo

	fgIdx      int
	monitorUp  []bool
	monitorDue []int64
	refCount   int64
}

type taskInfo struct {
	job     *Job
	isFG    bool
	monitor int // -1 unless a monitor instance
}

// NewScript instantiates a workload over the machine environment.
func NewScript(env Env, seed uint64, spec Spec) *Script {
	if spec.Quantum <= 0 {
		spec.Quantum = 20000
	}
	s := &Script{
		spec:   spec,
		env:    env,
		rng:    NewRNG(seed),
		sched:  proc.NewScheduler(spec.Quantum),
		images: make(map[string]vm.Region),
		files:  make(map[string]vm.Region),
		jobs:   make(map[*proc.Task]*taskInfo),
	}
	s.sched.OnExit = s.onExit

	// Regions are created in sorted-name order. Ranging over the spec maps
	// directly would bind segments to names in randomized map order, so two
	// runs of the same spec could lay out the address space differently —
	// invisible while the cache index stays below the segment bits, and a
	// silent replay breaker the moment a sweep grows the cache past that.
	for _, name := range sortedNames(spec.Images) {
		s.images[name] = env.AddRegion(addr.PageIn(s.segs.alloc(), 0), spec.Images[name], vm.Code)
	}
	for _, name := range sortedNames(spec.Files) {
		s.files[name] = env.AddRegion(addr.PageIn(s.segs.alloc(), 0), spec.Files[name], vm.Data)
	}
	for _, name := range sortedNames(spec.ROFiles) {
		if _, dup := s.files[name]; dup {
			panic(fmt.Sprintf("workload: %q in both Files and ROFiles", name))
		}
		s.files[name] = env.AddRegion(addr.PageIn(s.segs.alloc(), 0), spec.ROFiles[name], vm.Code)
	}

	for _, b := range spec.Background {
		b.Params.Refs = 1 << 62 // runs for the whole experiment
		s.spawn(b, &taskInfo{monitor: -1})
	}
	if len(spec.Foreground) > 0 {
		s.spawn(spec.Foreground[0], &taskInfo{isFG: true, monitor: -1})
		s.fgIdx = 0
	}
	s.monitorUp = make([]bool, len(spec.Monitors))
	s.monitorDue = make([]int64, len(spec.Monitors))
	for i, m := range spec.Monitors {
		s.monitorDue[i] = m.Period
	}
	return s
}

// spawn creates a job for the spec and schedules it.
func (s *Script) spawn(js JobSpec, info *taskInfo) {
	shared := make([]vm.Region, 0, len(js.Shared))
	for _, name := range js.Shared {
		r, ok := s.images[name]
		if !ok {
			panic(fmt.Sprintf("workload: unknown shared image %q", name))
		}
		shared = append(shared, r)
	}
	var persistent, source vm.Region
	if js.PersistentData != "" {
		r, ok := s.files[js.PersistentData]
		if !ok {
			panic(fmt.Sprintf("workload: unknown persistent file region %q", js.PersistentData))
		}
		persistent = r
	}
	if js.PersistentSource != "" {
		r, ok := s.files[js.PersistentSource]
		if !ok {
			panic(fmt.Sprintf("workload: unknown persistent source region %q", js.PersistentSource))
		}
		source = r
	}
	job := newJobWithData(s.env, &s.segs, s.rng, js.Params, shared, persistent, source)
	info.job = job
	s.nextPID++
	t := &proc.Task{PID: s.nextPID, Name: js.Params.Name, Runner: job}
	s.jobs[t] = info
	s.sched.Add(t)
}

// onExit tears the job down and respawns foreground/monitor successors.
func (s *Script) onExit(t *proc.Task) {
	info := s.jobs[t]
	delete(s.jobs, t)
	info.job.Teardown()
	if info.isFG {
		s.fgIdx = (s.fgIdx + 1) % len(s.spec.Foreground)
		s.spawn(s.spec.Foreground[s.fgIdx], &taskInfo{isFG: true, monitor: -1})
	}
	if info.monitor >= 0 {
		s.monitorUp[info.monitor] = false
	}
}

// Next implements trace.Source.
func (s *Script) Next() (trace.Rec, bool) {
	s.refCount++
	for i := range s.spec.Monitors {
		if !s.monitorUp[i] && s.refCount >= s.monitorDue[i] {
			s.monitorUp[i] = true
			s.monitorDue[i] = s.refCount + s.spec.Monitors[i].Period
			s.spawn(s.spec.Monitors[i].Spec, &taskInfo{monitor: i})
		}
	}
	return s.sched.Next()
}

// NextBatch implements trace.BatchSource, producing the identical reference
// sequence Next would. The only per-reference work Next does above the
// scheduler is the monitor respawn check, and a monitor can only fire at the
// reference where refCount reaches its due point — so the stream is cut into
// windows guaranteed to contain no due point, generated in bulk by the
// scheduler, and single-stepped through the due points themselves, each
// step returned as a batch of one. A monitor that is still up bounds the
// window the same way: if it exits mid-window its successor cannot be due
// before the recorded due point either.
func (s *Script) NextBatch(buf []trace.Rec) int {
	n := 0
	for n < len(buf) {
		win := int64(len(buf) - n)
		due := false
		for i := range s.monitorDue {
			d := s.monitorDue[i] - s.refCount
			if d <= 1 {
				// A monitor decision lands on the very next reference
				// (or is overdue, waiting for the running instance to
				// exit): take the exact per-reference path.
				due = true
				break
			}
			if d-1 < win {
				win = d - 1
			}
		}
		if due {
			if n > 0 {
				// The per-reference path can reap a finished task or turn a
				// heap generation over, releasing regions the buffered
				// references still refer to. Flush so the machine replays
				// them first; the next call re-enters here with an empty
				// buffer.
				return n
			}
			// The single step is a batch of its own: its reference may be
			// a task's last, and the scheduler reaps that task when it
			// generates the next one, before the machine has consumed
			// this one.
			r, ok := s.Next()
			if !ok {
				return 0
			}
			buf[0] = r
			return 1
		}
		k := s.sched.NextBatch(buf[n : n+int(win)])
		s.refCount += int64(k)
		n += k
		if k < int(win) {
			return n // every task finished
		}
	}
	return n
}

// Runnable reports how many processes could use the CPU right now; the
// pager uses it to decide whether a page-in stall overlaps with other work.
func (s *Script) Runnable() int { return s.sched.Len() }
