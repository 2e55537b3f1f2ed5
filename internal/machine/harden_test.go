package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func hardenCfg() Config {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 200_000
	cfg.Seed = 11
	return cfg
}

// TestRunHardenedCleanMatchesPlainRun: without faults, hardening is
// observationally free — same events, same cycles, same refs.
func TestRunHardenedCleanMatchesPlainRun(t *testing.T) {
	cfg := hardenCfg()
	plain := RunSpec(cfg, workload.SLCSpec())
	_, hard, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{AuditEvery: 50_000})
	if fail != nil {
		t.Fatalf("clean hardened run failed: %v", fail)
	}
	if !reflect.DeepEqual(plain, hard) {
		t.Errorf("hardened result diverged:\nplain %+v\nhard  %+v", plain, hard)
	}
}

// TestRunHardenedRecoversIOExhaustion: a permanently failing backing store
// (PageInIO at every opportunity) exhausts the pager's retry budget; the
// resulting *vm.IOError panic becomes a structured RunFailure with a written
// repro bundle instead of a crashed test binary.
func TestRunHardenedRecoversIOExhaustion(t *testing.T) {
	dir := t.TempDir()
	cfg := hardenCfg()
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.PageInIO, Every: 1}}
	_, res, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		ArtifactDir: dir, TraceTail: 16,
	})
	if fail == nil {
		t.Fatal("permanent I/O failure did not fail the run")
	}
	if fail.Kind != FailPanic {
		t.Errorf("kind = %s, want %s", fail.Kind, FailPanic)
	}
	if !strings.Contains(fail.Reason, "backing-store") {
		t.Errorf("reason = %q", fail.Reason)
	}
	if len(fail.Tail) == 0 || len(fail.Tail) > 16 {
		t.Errorf("tail has %d records", len(fail.Tail))
	}
	if len(fail.Injections) == 0 {
		t.Error("no injection log in the failure")
	}
	if res.Refs >= cfg.TotalRefs {
		t.Error("failed run claims to have completed")
	}

	// The bundle on disk round-trips and reproduces the config.
	if fail.BundlePath == "" {
		t.Fatal("no bundle written")
	}
	data, err := os.ReadFile(fail.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var loaded RunFailure
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if loaded.Config.Seed != cfg.Seed || len(loaded.Config.Faults) != 1 ||
		loaded.Config.Faults[0].Kind != faultinject.PageInIO {
		t.Errorf("bundle config does not reproduce the run: %+v", loaded.Config)
	}
}

// TestTransientIOFaultsRetryAndComplete: sparse transient I/O errors are
// absorbed by retry-with-backoff — the run completes, the retries are
// counted, and the backoff shows up in elapsed time.
func TestTransientIOFaultsRetryAndComplete(t *testing.T) {
	cfg := hardenCfg()
	_, clean, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}

	cfg2 := cfg
	cfg2.Faults = []faultinject.Plan{{Kind: faultinject.PageInIO, Every: 10, Seed: 5}}
	m := New(cfg2)
	script := workload.NewScript(m, cfg2.Seed, workload.SLCSpec())
	res, fail := m.RunHardened(script, cfg2.TotalRefs, RunOptions{})
	if fail != nil {
		t.Fatalf("transient faults killed the run: %v", fail)
	}
	if m.Pager.Stats.IORetries == 0 {
		t.Fatal("no retries recorded despite injected transient errors")
	}
	if res.Refs != clean.Refs {
		t.Errorf("refs %d != clean %d", res.Refs, clean.Refs)
	}
	if res.Cycles <= clean.Cycles {
		t.Error("retry/backoff cost did not appear in the elapsed-time model")
	}
	// The retries changed only time, not behaviour: same event counts
	// (elapsed time differs by exactly the backoff, so exclude it).
	gotEv, wantEv := res.Events, clean.Events
	gotEv.ElapsedSeconds, wantEv.ElapsedSeconds = 0, 0
	if gotEv != wantEv {
		t.Errorf("transient I/O retries changed simulated events:\n%+v\n%+v", gotEv, wantEv)
	}
}

// TestContinuousAuditCatchesInjectedCorruption: corrupted line tags are an
// invariant breach the continuous audit must catch mid-run.
func TestContinuousAuditCatchesInjectedCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := hardenCfg()
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.LineCorrupt, Every: 2000}}
	_, _, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		AuditEvery: 500, ArtifactDir: dir,
	})
	if fail == nil {
		t.Fatal("injected line corruption never tripped the audit")
	}
	if fail.Kind != FailAudit {
		t.Fatalf("kind = %s (%s), want %s", fail.Kind, fail.Reason, FailAudit)
	}
	if !strings.Contains(fail.Reason, "page") {
		t.Errorf("audit reason = %q", fail.Reason)
	}
	if fail.BundlePath == "" {
		t.Error("no repro bundle for the audit breach")
	}
}

// TestHardenedRunReproducibleBitForBit: the acceptance criterion — a run
// with any fault plan replays exactly from its configuration, including
// which injections fired and where the run failed.
func TestHardenedRunReproducibleBitForBit(t *testing.T) {
	run := func() (Result, *RunFailure, []faultinject.Record) {
		cfg := hardenCfg()
		cfg.Faults = []faultinject.Plan{
			{Kind: faultinject.CounterWrap, Every: 30_000, Seed: 3},
			{Kind: faultinject.DirtyBitFlip, Every: 7000, Seed: 9},
			{Kind: faultinject.PageInIO, Every: 25, Seed: 17},
		}
		m := New(cfg)
		script := workload.NewScript(m, cfg.Seed, workload.SLCSpec())
		res, fail := m.RunHardened(script, cfg.TotalRefs, RunOptions{AuditEvery: 20_000})
		return res, fail, m.Inject.Log()
	}
	res1, fail1, log1 := run()
	res2, fail2, log2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results diverged:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Error("injection logs diverged")
	}
	if (fail1 == nil) != (fail2 == nil) {
		t.Fatalf("one run failed, the other did not: %v vs %v", fail1, fail2)
	}
	if fail1 != nil && (fail1.Kind != fail2.Kind || fail1.Refs != fail2.Refs) {
		t.Errorf("failures diverged: %v vs %v", fail1, fail2)
	}
}

// TestCounterWrapInvisibleToMeasurements: injected hardware wraparounds do
// not perturb any measured result, because measurement reads the 64-bit
// software shadow — while the hardware view visibly diverges.
func TestCounterWrapInvisibleToMeasurements(t *testing.T) {
	cfg := hardenCfg()
	_, clean, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}

	cfg2 := cfg
	cfg2.Faults = []faultinject.Plan{{Kind: faultinject.CounterWrap, Every: 10_000}}
	m := New(cfg2)
	script := workload.NewScript(m, cfg2.Seed, workload.SLCSpec())
	wrapped, fail := m.RunHardened(script, cfg2.TotalRefs, RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}
	if !reflect.DeepEqual(clean, wrapped) {
		t.Errorf("counter wraparound leaked into measurements:\n%+v\n%+v", clean, wrapped)
	}
	if m.Inject.Fired(faultinject.CounterWrap) == 0 {
		t.Fatal("no wraparounds were injected")
	}
	// The hardware-accurate view did lose counts: at least one hardware
	// counter disagrees with its shadow modulo 2^32.
	diverged := false
	for i := 0; i < 16; i++ {
		ev := m.Ctr.HardwareEvent(i)
		if uint64(m.Ctr.Hardware(i)) != m.Ctr.Count(ev)&0xFFFF_FFFF {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("hardware counters survived an injected wraparound unscathed")
	}
}

// TestDocumentedChaosDrill pins the command-line drill EXPERIMENTS.md
// documents (spursim -w slc -mem 5 -refs 500000 -chaos line-corrupt
// -chaos-every 2000 -chaos-seed 0 -audit-every 500): the audit trips at
// reference 6000, a multiple of AuditEvery. A runner that audited at batch
// ends instead of splitting batches at the cadence first catches the
// breach at reference 20480.
func TestDocumentedChaosDrill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 500_000
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.LineCorrupt, Every: 2000}}
	_, _, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{AuditEvery: 500})
	if fail == nil || fail.Kind != FailAudit {
		t.Fatalf("fail = %v, want an audit failure", fail)
	}
	if fail.Refs != 6000 || !strings.HasPrefix(fail.Reason, "line 681:") {
		t.Errorf("drill failed after %d refs (%s), want 6000 refs at line 681", fail.Refs, fail.Reason)
	}
}

// perRefHardened is the reference the batched hardened runner's failures
// are checked against: one Next and one Access per reference, each record
// entering the tail before it is accessed, and a panic ending the run.
func perRefHardened(m *Machine, src trace.Source, n int64, tailLen int) (refs int64, tail []trace.Rec) {
	defer func() { _ = recover() }()
	for refs < n {
		rec, ok := src.Next()
		if !ok {
			break
		}
		tail = append(tail, rec)
		if len(tail) > tailLen {
			tail = tail[1:]
		}
		m.Engine.Access(rec)
		refs++
	}
	return refs, tail
}

// TestRunHardenedFailurePositionMatchesPerRef: a panic inside a batch is
// placed on the reference that raised it. RunFailure.Refs counts the
// references before it and Tail ends with it, exactly as a per-reference
// loop reports them, whether the tail lies inside the failing batch or
// spans earlier ones.
func TestRunHardenedFailurePositionMatchesPerRef(t *testing.T) {
	// sliceRun reads a registered page set, then at reference bad touches
	// a segment with no region, which panics inside the pager.
	sliceRun := func(bad int) func() (*Machine, trace.BatchSource) {
		return func() (*Machine, trace.BatchSource) {
			m := New(DefaultConfig())
			seg, hole := testSeg, testSeg+1
			m.AddRegion(addr.PageIn(seg, 0), 64, vm.Data)
			recs := make([]trace.Rec, 10_000)
			for i := range recs {
				recs[i] = trace.Rec{Op: trace.OpRead, Addr: addr.PageIn(seg, i%64).Base() + addr.GVA(i%7)*32}
			}
			recs[bad].Addr = addr.PageIn(hole, 0).Base()
			return m, trace.NewSliceSource(recs)
		}
	}
	ioExhaustion := func() (*Machine, trace.BatchSource) {
		cfg := hardenCfg()
		cfg.Faults = []faultinject.Plan{{Kind: faultinject.PageInIO, Every: 1}}
		m := New(cfg)
		return m, workload.NewScript(m, cfg.Seed, workload.SLCSpec())
	}
	for _, tc := range []struct {
		name string
		mk   func() (*Machine, trace.BatchSource)
		opts RunOptions
	}{
		{"pagein-io", ioExhaustion, RunOptions{TraceTail: 16}},
		{"tail-in-batch", sliceRun(6000), RunOptions{}},
		{"tail-spans-batches", sliceRun(4100), RunOptions{TraceTail: 200}},
		{"audit-split-batches", sliceRun(4100), RunOptions{TraceTail: 200, AuditEvery: 1000}},
		{"first-ref", sliceRun(0), RunOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, src := tc.mk()
			_, fail := m.RunHardened(src, 200_000, tc.opts)
			if fail == nil || fail.Kind != FailPanic {
				t.Fatalf("fail = %v, want a panic", fail)
			}
			mRef, srcRef := tc.mk()
			if s, ok := srcRef.(*workload.Script); ok {
				mRef.Pager.Runnable = s.Runnable
			}
			tailLen := tc.opts.TraceTail
			if tailLen == 0 {
				tailLen = defaultTraceTail
			}
			refs, tail := perRefHardened(mRef, srcRef, 200_000, tailLen)
			if fail.Refs != refs {
				t.Errorf("Refs = %d, per-reference loop failed after %d", fail.Refs, refs)
			}
			if !reflect.DeepEqual(fail.Tail, tail) {
				t.Errorf("tail differs from the per-reference loop's:\nbatched %v\nper-ref %v", fail.Tail, tail)
			}
		})
	}
}

// TestTraceTailClamped: an oversized TraceTail cannot size the ring past
// MaxTraceTail.
func TestTraceTailClamped(t *testing.T) {
	if got := newTailBuffer(1 << 45).n; got != MaxTraceTail {
		t.Errorf("ring of %d records, want %d", got, MaxTraceTail)
	}
}

// TestRunHardenedDeadline: a hopeless wall-clock budget stops the run with a
// deadline failure instead of hanging the sweep.
func TestRunHardenedDeadline(t *testing.T) {
	cfg := hardenCfg()
	cfg.TotalRefs = 50_000_000 // far more than a nanosecond of work
	_, res, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		Deadline: time.Nanosecond,
	})
	if fail == nil || fail.Kind != FailDeadline {
		t.Fatalf("fail = %v, want deadline", fail)
	}
	if res.Refs == 0 || res.Refs >= cfg.TotalRefs {
		t.Errorf("refs at deadline = %d", res.Refs)
	}
}

// TestMPSnoopDropBreaksCoherenceAndIsAudited: dropped snoops let stale
// copies survive; auditing the multiprocessor every 1000 references catches
// the coherence breach (at most one owner, exclusive means alone).
func TestMPSnoopDropBreaksCoherenceAndIsAudited(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 32 << 20
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.SnoopDrop, Every: 3}}
	m := NewMP(cfg, 4)
	w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(4))
	var breach error
	for i := 0; i < 400_000 && breach == nil; i++ {
		m.Access(i%4, w.Step(i%4))
		if (i+1)%1000 == 0 {
			breach = AuditMP(m)
		}
	}
	if m.Bus.DroppedSnoops == 0 {
		t.Fatal("no snoops were dropped")
	}
	if breach == nil {
		t.Fatal("dropped snoops never tripped the MP coherence audit")
	}
}

func TestWriteBundleConcurrentCollisions(t *testing.T) {
	// Quarantined cells of a parallel sweep write their repro bundles
	// concurrently. Even when every failure derives the same base filename,
	// the O_EXCL create loop must give each its own file without clobbering.
	dir := t.TempDir()
	cfg := DefaultConfig()
	const writers = 8
	var wg sync.WaitGroup
	paths := make([]string, writers)
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := &RunFailure{Kind: FailPanic, Reason: "synthetic", Config: cfg, Seed: cfg.Seed}
			paths[i], errs[i] = f.WriteBundle(dir)
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if seen[paths[i]] {
			t.Fatalf("two writers got the same bundle path %s", paths[i])
		}
		seen[paths[i]] = true
	}
	got, _ := filepath.Glob(filepath.Join(dir, "runfailure-*.json"))
	if len(got) != writers {
		t.Errorf("%d bundles on disk, want %d", len(got), writers)
	}
}
