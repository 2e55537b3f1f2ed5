package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/pkg/client"
)

// testRefs keeps service-test simulations quick.
const testRefs = 200_000

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.StoreDir == "" && cfg.Store == nil {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.Retries = -1 // tests assert statuses, not retry behavior
	return s, ts, c
}

// TestSweepMemoized is the PR's acceptance criterion: an identical
// /v1/sweep request served twice returns byte-identical CSV, with the
// second response answered from the store — hit counter up, zero new
// simulator work — and both byte-identical to the local serial sweep.
func TestSweepMemoized(t *testing.T) {
	var computes atomic.Int64
	s, _, c := newTestServer(t, Config{
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "computed") {
				computes.Add(1)
			}
		},
	})
	req := client.SweepRequest{
		Workloads: []string{"SLC"},
		SizesMB:   []int{4, 5},
		Refs:      testRefs,
		Seed:      7,
		Reps:      2,
	}
	first, meta1, err := c.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Cached {
		t.Error("first sweep claims cached")
	}
	hitsBefore := s.Store().Stats().Hits()
	second, meta2, err := c.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Cached {
		t.Error("second identical sweep not served from the store")
	}
	if meta1.Key == "" || meta1.Key != meta2.Key {
		t.Errorf("keys differ: %q vs %q", meta1.Key, meta2.Key)
	}
	if !bytes.Equal(first, second) {
		t.Error("second response not byte-identical to the first")
	}
	if got := s.Store().Stats().Hits(); got != hitsBefore+1 {
		t.Errorf("store hits %d -> %d, want one more", hitsBefore, got)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("%d sweep computations, want 1 (no simulator cycles on the re-run)", n)
	}

	// And the store-backed remote output matches the local serial sweep
	// byte for byte.
	local := spur.MemorySweepCSV(spur.MemorySweep(spur.MemorySweepOptions{
		Workloads: []core.WorkloadName{core.SLC},
		SizesMB:   []int{4, 5},
		Refs:      testRefs,
		Seed:      7,
		Reps:      2,
		Parallel:  1,
	}))
	if string(first) != local {
		t.Error("remote CSV differs from local serial sweep")
	}

	// Equivalent spellings of the same experiment share one key: the
	// normalizer fills identical defaults.
	spelled := req
	spelled.Policies = []string{"miss", "Ref", "NOREF"}
	spelled.Format = client.FormatCSV
	third, meta3, err := c.Sweep(context.Background(), spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !meta3.Cached || meta3.Key != meta1.Key {
		t.Errorf("equivalent request missed the store (cached=%v key=%q)", meta3.Cached, meta3.Key)
	}
	if !bytes.Equal(first, third) {
		t.Error("equivalent request returned different bytes")
	}
}

func TestSweepChartFormatSharesStore(t *testing.T) {
	s, _, c := newTestServer(t, Config{})
	req := client.SweepRequest{
		Workloads: []string{"SLC"}, SizesMB: []int{4, 5}, Refs: testRefs,
	}
	if _, _, err := c.Sweep(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Format = client.FormatChart
	chart, meta, err := c.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Cached {
		t.Error("chart rendering of a stored sweep re-simulated")
	}
	if !strings.Contains(string(chart), "Page-ins vs memory size") {
		t.Errorf("chart body missing title:\n%s", chart)
	}
	if st := s.Store().Stats(); st.Puts != 1 {
		t.Errorf("store puts = %d, want 1 shared entry", st.Puts)
	}
}

func TestRunMemoized(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	req := client.RunRequest{Workload: "slc", MemMB: 5, Refs: testRefs, Seed: 3}
	r1, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first run claims cached")
	}
	if r1.Result.Refs != testRefs || r1.Result.Events.PageIns == 0 {
		t.Errorf("implausible result: %+v", r1.Result)
	}
	r2, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Key != r1.Key {
		t.Errorf("re-run not cached (cached=%v, keys %q vs %q)", r2.Cached, r2.Key, r1.Key)
	}
	a, _ := json.Marshal(r1.Result)
	b, _ := json.Marshal(r2.Result)
	if !bytes.Equal(a, b) {
		t.Error("cached result differs from computed result")
	}

	// The same run against a local simulator gives the same numbers.
	cfg := spur.DefaultConfig()
	cfg.MemoryBytes = core.MiB(5)
	cfg.TotalRefs = testRefs
	cfg.Seed = 3
	local := spur.Run(cfg, spur.SLC())
	if local.Events != r1.Result.Events {
		t.Errorf("remote events diverge from local run:\nremote %+v\nlocal  %+v", r1.Result.Events, local.Events)
	}
}

func TestRunHardenedAndFaults(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	req := client.RunRequest{
		Workload: "slc", MemMB: 5, Refs: testRefs, Seed: 3,
		Faults:   []spur.FaultPlan{{Kind: spur.FaultSnoopDelay, Every: 50_000}},
		Hardened: &client.HardenedOptions{AuditEvery: 100_000},
	}
	r, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failure != nil {
		t.Fatalf("benign fault plan quarantined the run: %v", r.Failure)
	}
	if r.Result.Refs != testRefs {
		t.Errorf("refs = %d", r.Result.Refs)
	}
}

func TestRunValidation(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	for name, req := range map[string]client.RunRequest{
		"unknown workload": {Workload: "doom"},
		"bad dirty":        {Dirty: "SHINY"},
		"bad ref":          {Ref: "MAYBE"},
		"negative refs":    {Refs: -1},
		"spec and name":    {Workload: "slc", Spec: &spur.Spec{}},
	} {
		_, err := c.Run(context.Background(), req)
		se, ok := err.(*client.StatusError)
		if !ok || se.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}
}

// TestRunRejectsUnboundedHardenedOptions: a trace_tail large enough to
// exhaust memory when the tail ring is allocated, or a negative audit or
// deadline, gets 400 before the job is journaled or computed, and the node
// keeps serving.
func TestRunRejectsUnboundedHardenedOptions(t *testing.T) {
	_, ts, c := newTestServer(t, Config{JobJournal: filepath.Join(t.TempDir(), "jobs.journal")})
	for _, body := range []string{
		`{"refs": 1000, "hardened": {"trace_tail": 1099511627776}}`,
		`{"refs": 1000, "hardened": {"trace_tail": 35184372088832}}`,
		`{"refs": 1000, "hardened": {"audit_every": -1}}`,
		`{"refs": 1000, "hardened": {"deadline_ms": -1}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("node stopped serving /healthz: %v", err)
	}
	if h.Status != "ok" || h.Jobs == nil || h.Jobs.Journaled != 0 {
		t.Errorf("health = %+v, jobs = %+v; want ok with nothing journaled", h, h.Jobs)
	}
}

func TestTablesEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	resp, err := c.Tables(context.Background(), "2.1", client.TablesQuery{Paper: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) != 1 || !strings.Contains(resp.Docs[0].Title, "Table 2.1") {
		t.Fatalf("docs = %+v", resp.Docs)
	}
	if len(resp.Docs[0].Rows) == 0 {
		t.Error("table has no rows")
	}
	again, err := c.Tables(context.Background(), "2.1", client.TablesQuery{Paper: true})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("second tables fetch not cached")
	}
	// Figures arrive as pre-rendered text docs.
	fig, err := c.Tables(context.Background(), "f3.1", client.TablesQuery{Paper: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Docs) != 1 || fig.Docs[0].Text == "" {
		t.Errorf("figure docs = %+v", fig.Docs)
	}
	if _, err := c.Tables(context.Background(), "9.9", client.TablesQuery{}); err == nil {
		t.Error("unknown table id accepted")
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, _, c := newTestServer(t, Config{MaxRun: 3, MaxQueue: 5})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != spur.Version {
		t.Errorf("health = %+v", h)
	}
	if h.Queue.MaxRun != 3 || h.Queue.MaxQueue != 5 {
		t.Errorf("queue config = %+v", h.Queue)
	}
	s.StartDraining()
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("status = %q after StartDraining", h.Status)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, _, c := newTestServer(t, Config{MaxRun: 1, MaxQueue: -1})
	// Occupy the only worker slot directly, so the next request must be
	// shed — no timing dependence.
	release, err := s.q.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	_, err = c.Run(context.Background(), client.RunRequest{Refs: 1000})
	se, ok := err.(*client.StatusError)
	if !ok || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("shed request blocked instead of failing fast")
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Queue.Rejected == 0 {
		t.Error("rejection not counted")
	}
	// healthz itself never queues — it stayed reachable throughout.
}

func TestRetryAfterHeader(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxRun: 1, MaxQueue: -1})
	release, err := s.q.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"refs":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestInFlightDedupe(t *testing.T) {
	fl := newFlight()
	var invocations atomic.Int64
	entered := make(chan struct{})
	proceed := make(chan struct{})
	key, done := makeKey(t), make(chan []byte, 2)
	leaderFn := func() ([]byte, error) {
		invocations.Add(1)
		close(entered)
		<-proceed
		return []byte("answer"), nil
	}
	go func() {
		data, _, _ := fl.do(context.Background(), key, leaderFn)
		done <- data
	}()
	<-entered // the leader is inside fn; the follower must not re-enter
	go func() {
		data, _, _ := fl.do(context.Background(), key, leaderFn)
		done <- data
	}()
	// Give the follower a moment to attach, then let the leader finish.
	time.Sleep(10 * time.Millisecond)
	close(proceed)
	for i := 0; i < 2; i++ {
		if string(<-done) != "answer" {
			t.Error("wrong answer")
		}
	}
	if n := invocations.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if fl.deduped.Load() != 1 {
		t.Errorf("deduped = %d", fl.deduped.Load())
	}
}

func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	var computes atomic.Int64
	s, _, c := newTestServer(t, Config{
		MaxRun: 4,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "computed") {
				computes.Add(1)
			}
		},
	})
	req := client.RunRequest{Workload: "slc", MemMB: 5, Refs: testRefs, Seed: 11}
	var wg sync.WaitGroup
	results := make([]*client.RunResponse, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Run(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for 4 identical concurrent requests", n)
	}
	for _, r := range results[1:] {
		if r == nil || results[0] == nil {
			continue
		}
		if r.Key != results[0].Key {
			t.Error("keys diverged across concurrent identical requests")
		}
	}
	if st := s.Store().Stats(); st.Puts != 1 {
		t.Errorf("puts = %d", st.Puts)
	}
}

func makeKey(t *testing.T) expstore.Key {
	t.Helper()
	k, err := expstore.KeyOf("test", "flight", 1)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
