package server

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/pkg/client"
)

func testJobLog(t *testing.T, path string) *jobLog {
	t.Helper()
	l, err := openJobLog(path, spur.Version, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestJobLogReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	l := testJobLog(t, path)
	k1 := expstore.Key(strings.Repeat("1", 64))
	k2 := expstore.Key(strings.Repeat("2", 64))
	if err := l.accept("sweep", k1, client.SweepRequest{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.accept("run", k2, client.RunRequest{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.done(k1); err != nil {
		t.Fatal(err)
	}
	st := l.stats()
	if st.Journaled != 2 || st.Completed != 1 || st.Pending != 1 {
		t.Fatalf("live stats = %+v, want 2 journaled, 1 completed, 1 pending", st)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process owes exactly the accepted-but-unfinished job.
	l2 := testJobLog(t, path)
	if len(l2.replayed) != 1 || l2.replayed[0].Key != string(k2) || l2.replayed[0].Kind != "run" {
		t.Fatalf("replayed = %+v, want the one unfinished run job", l2.replayed)
	}
	if st := l2.stats(); st.Pending != 1 {
		t.Fatalf("replayed pending = %d, want 1", st.Pending)
	}
	// Settling it and reopening owes nothing.
	if err := l2.done(k2); err != nil {
		t.Fatal(err)
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}
	l3 := testJobLog(t, path)
	if len(l3.replayed) != 0 {
		t.Fatalf("replayed after settle = %+v, want none", l3.replayed)
	}
	_ = l3.close()
}

func TestJobLogStaleVersionSetAside(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	l, err := openJobLog(path, "old-version", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	k := expstore.Key(strings.Repeat("a", 64))
	if err := l.accept("run", k, client.RunRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// A new code version must not replay old-version jobs: their keys
	// address a different result space.
	l2 := testJobLog(t, path)
	defer func() { _ = l2.close() }()
	if len(l2.replayed) != 0 {
		t.Fatalf("replayed across versions = %+v, want none", l2.replayed)
	}
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Fatalf("stale journal not set aside: %v", err)
	}
}

// TestJobRecovery is the durable-jobs drill: a daemon that accepted a sweep
// but died before finishing it restarts, recovers the job from the journal,
// and then serves the request from the store — byte-identical to a local
// run of the same spec.
func TestJobRecovery(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.journal")
	storeDir := filepath.Join(dir, "store")

	// The "crashed" process: journal an accepted sweep, never finish it.
	req := client.SweepRequest{Workloads: []string{"SLC"}, SizesMB: []int{5}, Refs: testRefs, Seed: 9}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	keyReq := req
	keyReq.Format = ""
	key, err := expstore.KeyOf(spur.Version, "sweep", keyReq)
	if err != nil {
		t.Fatal(err)
	}
	l := testJobLog(t, jpath)
	if err := l.accept("sweep", key, keyReq); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// The restarted process: recovery recomputes the owed sweep.
	s, err := New(Config{StoreDir: storeDir, JobJournal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if n := s.RecoverJobs(); n != 1 {
		t.Fatalf("RecoverJobs = %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitJobs(ctx); err != nil {
		t.Fatalf("WaitJobs: %v", err)
	}
	if _, ok := s.Store().Get(key); !ok {
		t.Fatal("recovered sweep is not in the store")
	}
	st := s.jobs.stats()
	if st.Recovered != 1 || st.Pending != 0 {
		t.Fatalf("jobs stats = %+v, want 1 recovered, 0 pending", st)
	}

	// A client asking for the same sweep is served from the store,
	// byte-identical to a local serial run.
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := client.New(ts.URL)
	body, meta, err := c.Sweep(context.Background(), client.SweepRequest{
		Workloads: []string{"SLC"}, SizesMB: []int{5}, Refs: testRefs, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Cached {
		t.Fatal("post-recovery request was recomputed, not served from the store")
	}
	want := spur.MemorySweepCSV(spur.MemorySweep(spur.MemorySweepOptions{
		SizesMB: []int{5}, Refs: testRefs, Seed: 9,
		Workloads: []core.WorkloadName{core.SLC},
	}))
	if string(body) != want {
		t.Fatalf("recovered sweep differs from local run:\n%s\nvs\n%s", body, want)
	}

	// Health reports the journal counters.
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Jobs == nil || h.Jobs.Recovered != 1 {
		t.Fatalf("healthz jobs = %+v, want recovered=1", h.Jobs)
	}
}

// TestDrainPersistsJobs is the SIGTERM-drain chaos drill, in-process: a
// daemon with a journaled, unfinished job drains and closes; a second
// daemon over the same journal and store completes the job and serves it
// byte-identical.
func TestDrainPersistsJobs(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.journal")
	storeDir := filepath.Join(dir, "store")
	req := client.SweepRequest{Workloads: []string{"SLC"}, SizesMB: []int{4}, Refs: testRefs, Seed: 3}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	keyReq := req
	keyReq.Format = ""
	key, err := expstore.KeyOf(spur.Version, "sweep", keyReq)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon 1 accepts the job and "dies" (drain + close) before finishing:
	// simulated by journaling the accept exactly as memoize does, then
	// closing — the compute never happens.
	s1, err := New(Config{StoreDir: storeDir, JobJournal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	s1.StartDraining()
	if err := s1.jobs.accept("sweep", key, keyReq); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Daemon 2 inherits journal + store and repays the job.
	s2, err := New(Config{StoreDir: storeDir, JobJournal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if n := s2.RecoverJobs(); n != 1 {
		t.Fatalf("RecoverJobs = %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s2.WaitJobs(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2)
	defer ts.Close()
	body, meta, err := client.New(ts.URL).Sweep(context.Background(), client.SweepRequest{
		Workloads: []string{"SLC"}, SizesMB: []int{4}, Refs: testRefs, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Cached {
		t.Fatal("restarted daemon recomputed a job it should have recovered")
	}
	want := spur.MemorySweepCSV(spur.MemorySweep(spur.MemorySweepOptions{
		SizesMB: []int{4}, Refs: testRefs, Seed: 3,
		Workloads: []core.WorkloadName{core.SLC},
	}))
	if string(body) != want {
		t.Fatalf("recovered sweep differs from local run:\n%s\nvs\n%s", body, want)
	}
}

// TestRecoverySettlesStoredJob: a process that stored a sweep's result but
// died before journaling its done record left the job owed. The first
// restart finds the result in the store and settles the job, so it ends
// with nothing pending and the second restart owes nothing.
func TestRecoverySettlesStoredJob(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.journal")
	storeDir := filepath.Join(dir, "store")
	req := client.SweepRequest{Workloads: []string{"SLC"}, SizesMB: []int{5}, Refs: testRefs, Seed: 9}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	keyReq := req
	keyReq.Format = ""
	key, err := expstore.KeyOf(spur.Version, "sweep", keyReq)
	if err != nil {
		t.Fatal(err)
	}

	// The crashed process: the sweep's result is in the store and its
	// accept in the journal, with no done record.
	s0, err := New(Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := s0.sweepJob(key, keyReq)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Store().Put(key, data); err != nil {
		t.Fatal(err)
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}
	l := testJobLog(t, jpath)
	if err := l.accept("sweep", key, keyReq); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	for restart, owed := range []int{1, 0} {
		s, err := New(Config{StoreDir: storeDir, JobJournal: jpath})
		if err != nil {
			t.Fatal(err)
		}
		if n := s.RecoverJobs(); n != owed {
			t.Errorf("restart %d: RecoverJobs = %d, want %d", restart+1, n, owed)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := s.WaitJobs(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		if js := s.jobs.stats(); js.Pending != 0 || js.Recovered != uint64(owed) {
			t.Errorf("restart %d: jobs %+v, want %d recovered and 0 pending", restart+1, js, owed)
		}
		if st := s.Store().Stats(); st.Puts != 0 {
			t.Errorf("restart %d: store puts = %d, want 0", restart+1, st.Puts)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
