package workload

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

func miniSpec() Spec {
	small := func(name string, refs int64) JobSpec {
		return JobSpec{
			Params: JobParams{
				Name: name, Refs: refs,
				HotCodeFrac: 0.2, DataPages: 8, HeapPages: 2, StackPages: 1,
				PIFetch: 0.5, PJump: 0.05, PFarJump: 0.1,
				PStack: 0.1, PAlloc: 0.05, PScanHeap: 0.1,
				PWritePage: 0.5, WriteRO: 0.3, WriteRMW: 0.2,
				ReadPassWrite: 0.01, PBackWrite: 0.005,
				PSeq: 0.3, PHotData: 0.3, HotDataFrac: 0.25, PHotWrite: 0.3,
				WindowPages: 2,
			},
			Shared:         []string{"img"},
			PersistentData: "file",
		}
	}
	return Spec{
		Name:   "mini",
		Images: map[string]int{"img": 4},
		Files:  map[string]int{"file": 8},
		Background: []JobSpec{{
			Params: JobParams{
				Name: "bg", HotCodeFrac: 0.2, DataPages: 8,
				PIFetch: 0.6, PJump: 0.05, PFarJump: 0.1,
				PWritePage: 0.3, WriteRO: 0.3, WriteRMW: 0.2,
				PSeq: 0.3, WindowPages: 2,
			},
			Shared: []string{"img"},
		}},
		Foreground: []JobSpec{small("fg1", 3000), small("fg2", 2000)},
		Monitors: []MonitorSpec{{
			Spec:   small("mon", 500),
			Period: 5000,
		}},
		Quantum: 100,
	}
}

func TestScriptProducesInterleavedStream(t *testing.T) {
	env := newFakeEnv()
	s := NewScript(env, 1, miniSpec())
	pids := map[int32]int{}
	for i := 0; i < 30000; i++ {
		r, ok := s.Next()
		if !ok {
			t.Fatal("script ran dry with a background job")
		}
		pids[r.PID]++
	}
	if len(pids) < 4 {
		t.Errorf("only %d distinct processes seen", len(pids))
	}
}

func TestScriptForegroundCycles(t *testing.T) {
	env := newFakeEnv()
	s := NewScript(env, 1, miniSpec())
	// fg1 (3000) + fg2 (2000) = one cycle of 5000 fg refs; run enough
	// that the cycle wraps several times.
	for i := 0; i < 40000; i++ {
		s.Next()
	}
	// The foreground keeps running: scheduler holds bg + fg (+ maybe
	// monitor).
	if s.sched.Len() < 2 {
		t.Errorf("scheduler drained to %d tasks", s.sched.Len())
	}
	if s.Runnable() != s.sched.Len() || len(s.jobs) != s.sched.Len() {
		t.Error("Runnable disagrees with scheduler")
	}
}

func TestScriptMonitorsRespawn(t *testing.T) {
	env := newFakeEnv()
	s := NewScript(env, 1, miniSpec())
	names := map[string]bool{}
	monitorSeen := 0
	last := false
	for i := 0; i < 60000; i++ {
		s.Next()
		cur := false
		for task := range s.jobs {
			names[task.Name] = true
			if task.Name == "mon" {
				cur = true
			}
		}
		if cur && !last {
			monitorSeen++
		}
		last = cur
	}
	if monitorSeen < 2 {
		t.Errorf("monitor spawned %d times, want recurring", monitorSeen)
	}
	if !names["fg1"] || !names["fg2"] || !names["bg"] {
		t.Errorf("tasks seen: %v", names)
	}
}

func TestScriptPersistentRegionsSurviveJobs(t *testing.T) {
	env := newFakeEnv()
	s := NewScript(env, 1, miniSpec())
	var file vm.Region
	for r := range env.regions {
		if r.N == 8 && env.regions[r] == vm.Data && r.Start >= 1<<18 { // file region in its own segment
			file = r
		}
	}
	if file.N == 0 {
		t.Fatal("persistent file region not created")
	}
	for i := 0; i < 30000; i++ {
		s.Next()
	}
	if _, ok := env.regions[file]; !ok {
		t.Error("persistent region released by job churn")
	}
}

func TestScriptUnknownImagePanics(t *testing.T) {
	spec := miniSpec()
	spec.Foreground[0].Shared = []string{"nope"}
	defer func() {
		if recover() == nil {
			t.Error("unknown image accepted")
		}
	}()
	NewScript(newFakeEnv(), 1, spec)
}

func TestScriptUnknownFilePanics(t *testing.T) {
	spec := miniSpec()
	spec.Foreground[0].PersistentData = "nope"
	defer func() {
		if recover() == nil {
			t.Error("unknown file accepted")
		}
	}()
	NewScript(newFakeEnv(), 1, spec)
}

func TestScriptROFilesDupPanics(t *testing.T) {
	spec := miniSpec()
	spec.ROFiles = map[string]int{"file": 4}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Files/ROFiles name accepted")
		}
	}()
	NewScript(newFakeEnv(), 1, spec)
}

func TestScriptDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []trace.Rec {
		env := newFakeEnv()
		s := NewScript(env, seed, miniSpec())
		out := make([]trace.Rec, 0, 2000)
		for i := 0; i < 2000; i++ {
			r, _ := s.Next()
			out = append(out, r)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at ref %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestScriptBatchMatchesNext(t *testing.T) {
	// NextBatch must yield bit-for-bit the stream Next does — across
	// monitor spawns (period 5000 in miniSpec), monitor exits, foreground
	// cycling, and quantum switches — whatever the buffer sizes. Awkward
	// buffer sizes are the point: they force windows to split around the
	// monitor due points at varying offsets.
	const total = 120_000
	ref := NewScript(newFakeEnv(), 7, miniSpec())
	want := make([]trace.Rec, total)
	for i := range want {
		r, ok := ref.Next()
		if !ok {
			t.Fatal("reference stream ran dry")
		}
		want[i] = r
	}

	for _, sizes := range [][]int{{1}, {3, 17, 101}, {256}, {4096}, {4096, 1, 33}} {
		s := NewScript(newFakeEnv(), 7, miniSpec())
		got := make([]trace.Rec, 0, total)
		for si := 0; len(got) < total; si++ {
			n := sizes[si%len(sizes)]
			if rem := total - len(got); n > rem {
				n = rem
			}
			buf := make([]trace.Rec, n)
			k := s.NextBatch(buf)
			if k == 0 {
				t.Fatalf("sizes %v: batch stream ran dry at ref %d", sizes, len(got))
			}
			got = append(got, buf[:k]...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sizes %v: stream diverged at ref %d: batch %+v, next %+v",
					sizes, i, got[i], want[i])
			}
		}
	}
}

func TestSpecsInstantiate(t *testing.T) {
	// Every shipped spec must build and stream against a fake env.
	specs := []Spec{Workload1Spec(), SLCSpec()}
	for _, h := range SpriteHosts() {
		specs = append(specs, h.Spec())
	}
	for _, spec := range specs {
		env := newFakeEnv()
		s := NewScript(env, 1, spec)
		for i := 0; i < 5000; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("%s ran dry", spec.Name)
			}
		}
	}
}

func TestSpriteHostsMatchPaper(t *testing.T) {
	hosts := SpriteHosts()
	if len(hosts) != 6 {
		t.Fatalf("%d hosts, want 6", len(hosts))
	}
	wantMem := []int{8, 8, 8, 12, 12, 16}
	wantUp := []int{70, 37, 46, 45, 36, 119}
	for i, h := range hosts {
		if h.MemMB != wantMem[i] || h.UptimeHours != wantUp[i] {
			t.Errorf("host %d = %+v", i, h)
		}
	}
}

func TestWindowSpecValidAndStreams(t *testing.T) {
	spec := WindowSpec()
	if err := ValidateSpec(spec); err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	s := NewScript(env, 1, spec)
	writes := 0
	for i := 0; i < 20000; i++ {
		r, ok := s.Next()
		if !ok {
			t.Fatal("window workload ran dry")
		}
		if r.Op == trace.OpWrite {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("no writes")
	}
}

// releaseLog wraps fakeEnv and records, for every ReleaseRegion, how many
// references the consumer had taken when it came.
type releaseLog struct {
	*fakeEnv
	consumed int64
	events   []string
}

func (e *releaseLog) ReleaseRegion(r vm.Region) {
	e.events = append(e.events, fmt.Sprintf("release %v at %d", r, e.consumed))
	e.fakeEnv.ReleaseRegion(r)
}

// releases runs total references of spec at seed and returns the release
// log. sizes == nil takes one Next per reference; otherwise NextBatch is
// called with the buffer lengths in sizes, cyclically, and each batch
// counts as consumed only once the call returns — as a machine replays it.
func releases(t *testing.T, spec Spec, seed uint64, total int64, sizes []int) []string {
	t.Helper()
	env := &releaseLog{fakeEnv: newFakeEnv()}
	s := NewScript(env, seed, spec)
	buf := make([]trace.Rec, trace.BatchSize)
	for si := 0; env.consumed < total; si++ {
		k := 0
		if sizes == nil {
			if _, ok := s.Next(); ok {
				k = 1
			}
		} else {
			n := int64(sizes[si%len(sizes)])
			if rem := total - env.consumed; n > rem {
				n = rem
			}
			k = s.NextBatch(buf[:n])
		}
		if k == 0 {
			t.Fatalf("stream ran dry at ref %d", env.consumed)
		}
		env.consumed += int64(k)
	}
	return env.events
}

// churnSpec ends a task every few dozen references and makes a monitor due
// every 61, so monitor due points often land on a task's last reference.
func churnSpec() Spec {
	spec := miniSpec()
	spec.Foreground = nil
	for i, refs := range []int64{7, 13, 29, 41} {
		fg := miniSpec().Foreground[0]
		fg.Params.Name = fmt.Sprintf("fg%d", i)
		fg.Params.Refs = refs
		spec.Foreground = append(spec.Foreground, fg)
	}
	spec.Monitors[0].Period = 61
	spec.Monitors[0].Spec.Params.Refs = 5
	spec.Quantum = 16
	return spec
}

// TestScriptBatchReleasesWhereNextDoes is the release-order oracle: every
// region release must come after exactly the references the per-reference
// path consumes before it, however the batches are cut. (Segment frees are
// the workload's own; one that moved relative to an allocation would move
// the next job's addresses, which TestScriptBatchMatchesNext catches.)
// The buffer lengths stand in for every batched caller: trace.Pump's full
// batches and its alignment cuts (Machine.Run's audits, the sampler's
// profiling intervals) and the sampling fanout's horizon caps. The stream
// covers task reaping and heap-generation turnover inside the scheduler's
// Horizoned loop, and the monitor due points Script single-steps.
func TestScriptBatchReleasesWhereNextDoes(t *testing.T) {
	cases := []struct {
		spec  Spec
		seeds []uint64
		refs  int64
	}{
		{churnSpec(), []uint64{1, 2, 3}, 100_000},
		// The shipped specs release rarely: WORKLOAD1 first at ~550k
		// references, SLC once a heap generation outgrows its region.
		{Workload1Spec(), []uint64{1, 11}, 1_000_000},
		{SLCSpec(), []uint64{1, 11}, 3_000_000},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			want := releases(t, c.spec, seed, c.refs, nil)
			if len(want) == 0 {
				t.Fatalf("%s seed %d: no releases in %d refs", c.spec.Name, seed, c.refs)
			}
			for _, sizes := range [][]int{{trace.BatchSize}, {1, 61, 999, 3, 17, 4000}} {
				got := releases(t, c.spec, seed, c.refs, sizes)
				if len(got) != len(want) {
					t.Errorf("%s seed %d sizes %v: %d releases, per-reference path %d",
						c.spec.Name, seed, sizes, len(got), len(want))
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("%s seed %d sizes %v: batched %s, per-reference %s",
							c.spec.Name, seed, sizes, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
