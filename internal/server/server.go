// Package server is the spurd experiment daemon: an HTTP/JSON service that
// turns the repository's deterministic experiment drivers into a shared,
// memoizing facility. Because PR 2 made every run a pure function of its
// canonical spec, the daemon can answer a repeated request from its
// content-addressed result store (internal/expstore) in microseconds
// instead of re-simulating for minutes, dedupe identical in-flight
// requests down to one computation, and shed excess load with 429 +
// Retry-After instead of melting down.
//
// Endpoints:
//
//	POST /v1/run          one simulator run (hardened; fault plans allowed)
//	POST /v1/sweep        the memory-size study, as CSV or ASCII charts
//	GET  /v1/tables/{id}  any paper table/figure in the shared Doc JSON
//	GET  /healthz         store counters, queue occupancy, drain state
//
// Wire types live in repro/pkg/client, which is also the typed client.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/faultinject"
	"repro/pkg/client"
)

// Config assembles a daemon.
type Config struct {
	// StoreDir roots the on-disk result store; empty keeps results in
	// memory only. Ignored when Store is set.
	StoreDir string
	// Store, when non-nil, is used directly (tests share one store
	// across servers this way).
	Store *expstore.Store
	// MaxRun bounds concurrently executing jobs (default GOMAXPROCS);
	// MaxQueue bounds jobs waiting for a slot before admission control
	// sheds load with 429 (0 = default 4×MaxRun; negative = no waiting
	// room, shed as soon as every slot is busy).
	MaxRun   int
	MaxQueue int
	// Parallel is the per-sweep worker bound handed to the experiment
	// engine (default MaxRun). Results are identical at any setting.
	Parallel int
	// JobJournal, when set, makes accepted jobs durable: every admitted
	// job is journaled (fsynced) before it computes, and RecoverJobs
	// recomputes whatever an earlier process accepted but never finished.
	JobJournal string
	// ScrubEvery, when positive, runs a background store integrity pass
	// (expstore.Scrub) at that cadence, quarantining bit-rotted blobs. A
	// quarantined blob comes back on its next request: in cluster mode from
	// one of the key's replicas, else (or failing that) by recomputing it.
	ScrubEvery time.Duration

	// Self and Peers turn the node into a cluster member: Self is this
	// node's advertised base URL and must appear in Peers, the full static
	// membership (every node gets the same list; order does not matter).
	// An empty Peers list runs the classic single-node daemon.
	Self  string
	Peers []string
	// Replication is how many nodes hold each result (owner + M−1
	// replicas; default 2, clamped to the peer count).
	Replication int
	// Outbox journals replication debts durably ("" = in-memory outbox:
	// pushes pending at a crash are lost, and a replica that missed one
	// fetches the blob on its first request for it).
	Outbox string
	// PeerTimeout bounds every peer call — blob pushes and fetches and
	// health probes (default 5s).
	PeerTimeout time.Duration

	// NetFaults, when non-nil, is the deterministic network fault plane:
	// incoming requests pass through its Middleware, and every outgoing
	// peer call (blob push and fetch, health probe) through its Transport.
	// The injector is shared, not copied, so a torture driver can re-arm
	// rules per round with SetRules.
	NetFaults *faultinject.NetInjector

	// Logf, when set, receives one line per computed (not cached) job.
	Logf func(format string, args ...any)
}

func (c Config) fill() Config {
	if c.MaxRun <= 0 {
		c.MaxRun = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxRun
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.Parallel <= 0 {
		c.Parallel = c.MaxRun
	}
	if len(c.Peers) > 0 {
		if c.Replication <= 0 {
			c.Replication = 2
		}
		if c.Replication > len(c.Peers) {
			c.Replication = len(c.Peers)
		}
		if c.PeerTimeout <= 0 {
			c.PeerTimeout = 5 * time.Second
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the daemon; it implements http.Handler.
type Server struct {
	cfg      Config
	store    *expstore.Store
	q        *queue
	fl       *flight
	jobs     *jobLog
	cluster  *clusterNode
	mux      *http.ServeMux
	handler  http.Handler
	start    time.Time
	draining atomic.Bool

	recoverWG sync.WaitGroup
	stopScrub chan struct{}
	closeOnce sync.Once
}

// New assembles a server (opening the store if Config.Store is nil).
func New(cfg Config) (*Server, error) {
	cfg = cfg.fill()
	store := cfg.Store
	if store == nil {
		var err error
		store, err = expstore.Open(cfg.StoreDir, expstore.Options{})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   cfg,
		store: store,
		q:     newQueue(cfg.MaxRun, cfg.MaxQueue),
		fl:    newFlight(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if cfg.JobJournal != "" {
		jobs, err := openJobLog(cfg.JobJournal, spur.Version, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.jobs = jobs
	}
	if len(cfg.Peers) > 0 {
		node, err := newClusterNode(cfg)
		if err != nil {
			return nil, err
		}
		// The outbox's sender starts at once and may push replayed debts
		// through s.sendBlob, which reads s.cluster: publish the node first.
		s.cluster = node
		if node.outbox, err = cluster.OpenOutbox(cfg.Outbox, spur.Version, s.sendBlob, cfg.Logf); err != nil {
			return nil, err
		}
		s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		s.mux.HandleFunc("GET /v1/cluster/blob/{key}", s.handleBlobGet)
		s.mux.HandleFunc("PUT /v1/cluster/blob/{key}", s.handleBlobPut)
		s.mux.HandleFunc("POST /v1/cluster/scrub", s.handleClusterScrub)
	}
	if cfg.ScrubEvery > 0 {
		s.stopScrub = make(chan struct{})
		go s.scrubLoop()
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/tables/{id}", s.handleTables)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.handler = s.mux
	if cfg.NetFaults != nil {
		s.handler = cfg.NetFaults.Middleware(cfg.Self, s.mux)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Store exposes the result store (for /healthz-style introspection and
// tests).
func (s *Server) Store() *expstore.Store { return s.store }

// StartDraining flips /healthz to "draining"; the caller then runs
// http.Server.Shutdown, which stops new connections and waits for
// in-flight requests.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Close stops the background scrubber and closes the job journal. It is
// idempotent; call it after the HTTP server has drained.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.stopScrub != nil {
			close(s.stopScrub)
		}
		if s.cluster != nil && s.cluster.outbox != nil {
			if oerr := s.cluster.outbox.Close(); oerr != nil {
				err = oerr
			}
		}
		if s.jobs != nil {
			if jerr := s.jobs.close(); jerr != nil {
				err = jerr
			}
		}
	})
	return err
}

// scrubLoop periodically verifies every stored blob against its embedded
// hash, quarantining bit rot before a request can trip over it.
func (s *Server) scrubLoop() {
	t := time.NewTicker(s.cfg.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopScrub:
			return
		case <-t.C:
			rep := s.store.Scrub()
			if rep.Quarantined > 0 || rep.Errors > 0 {
				s.cfg.Logf("spurd: scrub: %d blobs scanned, %d quarantined, %d unreadable", rep.Scanned, rep.Quarantined, rep.Errors)
			}
		}
	}
}

// jobFn computes one job's stored bytes; cache reports whether they may be
// persisted.
type jobFn func(ctx context.Context) (data []byte, cache bool, err error)

// memoize is the service's core loop: serve key from the store if
// present; otherwise let exactly one request compute it (in-flight dedupe)
// under a bounded-queue slot (admission control), persisting the bytes
// when fn says they are cacheable. The computation runs detached from the
// requester's context so an abandoned request still fills the store for
// the retry.
//
// With a job journal configured, the job is journaled durable between
// admission and completion: the accept record (kind + spec) lands, fsynced,
// before fn runs, and the done record only once the result is safely in the
// store (or fn failed — by determinism a retry would fail identically). A
// process killed in between owes the job, and RecoverJobs repays it.
func (s *Server) memoize(ctx context.Context, key expstore.Key, kind string, spec any, fn jobFn) (data []byte, cached bool, err error) {
	if data, ok := s.store.Get(key); ok {
		return data, true, nil
	}
	// Repair before recompute: a clustered node missing a blob (never
	// computed here, lost to a crash, or quarantined as corrupt) first
	// asks the key's other replicas, verifying the sealed envelope before
	// trusting anything. Only when no replica can produce the bytes does
	// the simulator run.
	if s.cluster != nil {
		if data, ok := s.fetchFromReplicas(ctx, key); ok {
			return data, true, nil
		}
	}
	data, _, err = s.fl.do(ctx, key, func() ([]byte, error) {
		release, err := s.q.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		if s.jobs != nil {
			if jerr := s.jobs.accept(kind, key, spec); jerr != nil {
				s.cfg.Logf("spurd: journaling %s job %.12s: %v", kind, key, jerr)
			}
		}
		data, cache, err := fn(context.WithoutCancel(ctx))
		persisted := true
		if err == nil && cache {
			if perr := s.store.Put(key, data); perr != nil {
				// Leave the job pending: the result never reached the
				// store, so a restart should recompute and re-persist it.
				persisted = false
				s.cfg.Logf("spurd: store put %s: %v", key, perr)
			} else {
				// The durable replication debt is journaled before the
				// response leaves: a crash right here still gets the blob
				// onto every replica.
				s.replicate(key)
			}
		}
		if s.jobs != nil && persisted {
			if jerr := s.jobs.done(key); jerr != nil {
				s.cfg.Logf("spurd: journaling %s done %.12s: %v", kind, key, jerr)
			}
		}
		return data, err
	})
	return data, false, err
}

// --- /v1/run -----------------------------------------------------------------

// runPayload is the stored (and served) body of one run.
type runPayload struct {
	Result  spur.Result      `json:"result"`
	Failure *spur.RunFailure `json:"failure,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := client.RunJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, cached, err := s.memoize(r.Context(), job.Key, job.Kind, job.Spec, s.runJob(job.Key, req))
	if err != nil {
		writeComputeError(w, err)
		return
	}
	// The payload is a runPayload object; its members follow the reply's
	// own, as in client.RunResponse.
	if len(data) == 0 || data[0] != '{' {
		httpError(w, http.StatusInternalServerError, "corrupt stored run: not a JSON object")
		return
	}
	head := `{"key":"` + string(job.Key) + `","cached":` + strconv.FormatBool(cached) + `,`
	writeSpliced(w, "run", head, data[1:], "")
}

// runJob is the compute closure behind /v1/run, shared with job recovery.
func (s *Server) runJob(key expstore.Key, req client.RunRequest) jobFn {
	return func(ctx context.Context) ([]byte, bool, error) {
		t0 := time.Now()
		p, err := s.computeRun(req)
		if err != nil {
			return nil, false, err
		}
		s.cfg.Logf("spurd: run %s computed in %s (failure=%v)", key[:12], time.Since(t0).Round(time.Millisecond), p.Failure != nil)
		data, err := json.Marshal(p)
		// Quarantined runs are served but never cached: a deadline
		// failure is load-dependent, and keeping failures out of the
		// store means a fixed simulator never replays a stale crash.
		return data, err == nil && p.Failure == nil, err
	}
}

func (s *Server) computeRun(req client.RunRequest) (runPayload, error) {
	cfg := spur.DefaultConfig()
	cfg.MemoryBytes = core.MiB(req.MemMB)
	cfg.CacheBytes = req.CacheKB << 10
	cfg.TotalRefs = req.Refs
	cfg.Seed = req.Seed
	var err error
	if cfg.Dirty, err = core.ParseDirtyPolicy(req.Dirty); err != nil {
		return runPayload{}, err
	}
	if cfg.Ref, err = core.ParseRefPolicy(req.Ref); err != nil {
		return runPayload{}, err
	}
	cfg.Faults = req.Faults

	var spec spur.Spec
	switch {
	case req.Spec != nil:
		spec = *req.Spec
	case req.Workload == client.WorkloadW1:
		spec = spur.Workload1()
	case req.Workload == client.WorkloadWindow:
		spec = spur.Window()
	default:
		spec = spur.SLC()
	}

	// Every server-side run goes through the hardened runner: a panicking
	// configuration must quarantine the run, not kill the daemon.
	var opts spur.RunOptions
	if h := req.Hardened; h != nil {
		opts = spur.RunOptions{
			AuditEvery: h.AuditEvery,
			Deadline:   time.Duration(h.DeadlineMS) * time.Millisecond,
			TraceTail:  h.TraceTail,
		}
	}
	res, fail := spur.RunHardened(cfg, spec, opts)
	return runPayload{Result: res, Failure: fail}, nil
}

// --- /v1/sweep ---------------------------------------------------------------

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := client.SweepJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, cached, err := s.memoize(r.Context(), job.Key, job.Kind, job.Spec, s.sweepJob(job.Key, req))
	if err != nil {
		writeComputeError(w, err)
		return
	}
	if req.Sample {
		var rows []spur.SampledRow
		if err := json.Unmarshal(data, &rows); err != nil {
			httpError(w, http.StatusInternalServerError, "corrupt stored sampled sweep: %v", err)
			return
		}
		w.Header().Set("X-Spur-Key", string(job.Key))
		w.Header().Set("X-Spur-Cached", strconv.FormatBool(cached))
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		// Write errors here mean the client hung up; nothing to do.
		_, _ = fmt.Fprint(w, spur.SampledSweepCSV(rows))
		return
	}
	var rows []spur.MemorySweepRow
	if err := json.Unmarshal(data, &rows); err != nil {
		httpError(w, http.StatusInternalServerError, "corrupt stored sweep: %v", err)
		return
	}
	w.Header().Set("X-Spur-Key", string(job.Key))
	w.Header().Set("X-Spur-Cached", strconv.FormatBool(cached))
	switch req.Format {
	case client.FormatChart:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// One chart per workload in first-seen row order, each followed
		// by a newline — exactly what the local driver prints.
		seen := map[core.WorkloadName]bool{}
		for _, row := range rows {
			if !seen[row.Workload] {
				seen[row.Workload] = true
				// Write errors here mean the client hung up; nothing to do.
				_, _ = fmt.Fprintln(w, spur.MemorySweepChart(rows, row.Workload))
			}
		}
	default:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		// Write errors here mean the client hung up; nothing to do.
		_, _ = fmt.Fprint(w, spur.MemorySweepCSV(rows))
	}
}

// sweepJob is the compute closure behind /v1/sweep, exact or sampled,
// shared with job recovery.
func (s *Server) sweepJob(key expstore.Key, req client.SweepRequest) jobFn {
	return func(ctx context.Context) ([]byte, bool, error) {
		t0 := time.Now()
		opts := spur.MemorySweepOptions{
			SizesMB:    req.SizesMB,
			Refs:       req.Refs,
			Seed:       req.Seed,
			Reps:       req.Reps,
			AuditEvery: req.AuditEvery,
			Parallel:   s.cfg.Parallel,
			Context:    ctx,
		}
		for _, name := range req.Workloads {
			opts.Workloads = append(opts.Workloads, core.WorkloadName(name))
		}
		for _, name := range req.Policies {
			p, err := core.ParseRefPolicy(name)
			if err != nil {
				return nil, false, err
			}
			opts.Policies = append(opts.Policies, p)
		}
		what, n := "sweep", 0
		var rows any
		var err error
		if req.Sample {
			var sampled []spur.SampledRow
			sampled, err = spur.MemorySweepSampled(opts, spur.SampleOptions{
				Intervals:   req.Intervals,
				IntervalLen: req.IntervalLen,
				Warmup:      req.Warmup,
			})
			what, n, rows = "sampled sweep", len(sampled), sampled
		} else {
			exact := spur.MemorySweep(opts)
			n, rows = len(exact), exact
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, false, err
		}
		s.cfg.Logf("spurd: %s %s (%d rows) computed in %s", what, key[:12], n, time.Since(t0).Round(time.Millisecond))
		data, err := json.Marshal(rows)
		return data, err == nil, err
	}
}

// --- /v1/tables/{id} ---------------------------------------------------------

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !client.ValidTableID(id) {
		httpError(w, http.StatusNotFound, "unknown table %q (valid: %s)", id, strings.Join(client.TableIDs, " "))
		return
	}
	q, err := parseTablesQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := client.TablesJob(id, &q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if render, ok := fixedTables[id]; ok {
		writeTables(w, id, job.Key, true, render())
		return
	}
	data, cached, err := s.memoize(r.Context(), job.Key, job.Kind, job.Spec, s.tablesJob(job.Key, id, q))
	if err != nil {
		writeComputeError(w, err)
		return
	}
	writeTables(w, id, job.Key, cached, data)
}

// fixedTables holds the artifacts whose bytes depend on no query field.
// Each is rendered once per process, on its first request, and answered
// from those bytes with cached set: no queue slot, job record, store
// lookup or put, replica fetch or replication.
var fixedTables = map[string]func() []byte{
	"2.1":  fixedDocs("2.1"),
	"3.1":  fixedDocs("3.1"),
	"3.2":  fixedDocs("3.2"),
	"f3.1": fixedDocs("f3.1"),
	"f3.2": fixedDocs("f3.2"),
}

// fixedDocs renders one artifact's docs payload, as tablesJob would store
// it, on the first call and returns those bytes from then on.
func fixedDocs(id string) func() []byte {
	return sync.OnceValue(func() []byte {
		// A fixed artifact runs no cell, so it cannot fail, and a Doc
		// holds only strings, which always marshal.
		docs, _ := spur.TableDocs(id, spur.Table41Options{}, true, "")
		b, _ := json.Marshal(docs)
		return b
	})
}

// writeTables answers /v1/tables/{id} with a docs payload, the JSON array
// of report.Docs that `cmd/tables -json` also prints.
func writeTables(w http.ResponseWriter, id string, key expstore.Key, cached bool, docs []byte) {
	if len(docs) == 0 || docs[0] != '[' {
		httpError(w, http.StatusInternalServerError, "corrupt stored tables: not a JSON array")
		return
	}
	// Table ids and keys are plain ASCII that JSON quotes verbatim.
	head := `{"id":"` + id + `","key":"` + string(key) + `","cached":` + strconv.FormatBool(cached) + `,"docs":`
	writeSpliced(w, "tables", head, docs, "}")
}

func parseTablesQuery(r *http.Request) (client.TablesQuery, error) {
	q := client.TablesQuery{Paper: true}
	v := r.URL.Query()
	var err error
	if s := v.Get("refs"); s != "" {
		if q.Refs, err = strconv.ParseInt(s, 10, 64); err != nil {
			return q, fmt.Errorf("bad refs %q", s)
		}
	}
	if s := v.Get("seed"); s != "" {
		if q.Seed, err = strconv.ParseUint(s, 10, 64); err != nil {
			return q, fmt.Errorf("bad seed %q", s)
		}
	}
	if s := v.Get("reps"); s != "" {
		if q.Reps, err = strconv.Atoi(s); err != nil {
			return q, fmt.Errorf("bad reps %q", s)
		}
	}
	if s := v.Get("paper"); s != "" {
		if q.Paper, err = strconv.ParseBool(s); err != nil {
			return q, fmt.Errorf("bad paper %q", s)
		}
	}
	return q, nil
}

// tablesJob is the compute closure behind /v1/tables/{id}, shared with job
// recovery, for every id but the fixedTables. It memoizes the reply, not
// its runs: spurd passes no store to spur.TableDocs.
func (s *Server) tablesJob(key expstore.Key, id string, q client.TablesQuery) jobFn {
	return func(ctx context.Context) ([]byte, bool, error) {
		t0 := time.Now()
		docs, err := spur.TableDocs(id, spur.Table41Options{
			Refs: q.Refs, Reps: q.Reps, Seed: q.Seed,
			Parallel: s.cfg.Parallel, Context: ctx,
		}, q.Paper, "")
		if err != nil {
			return nil, false, err
		}
		s.cfg.Logf("spurd: tables/%s %s computed in %s", id, key[:12], time.Since(t0).Round(time.Millisecond))
		data, err := json.Marshal(docs)
		return data, err == nil, err
	}
}

// --- /healthz ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	h := client.Health{
		Status:  status,
		Version: spur.Version,
		Store:   s.store.Stats(),
		Queue:   s.q.stats(s.fl.deduped.Load()),
		Uptime:  client.Duration(time.Since(s.start)),
	}
	if s.jobs != nil {
		h.Jobs = s.jobs.stats()
	}
	if c := s.cluster; c != nil {
		h.Cluster = &client.ClusterStats{
			Self:        c.self,
			Peers:       len(c.ring.Peers()),
			Replication: c.rep,
			Outbox:      c.outbox.Stats(),
			Breakers:    c.breakerStates(),
		}
	}
	writeJSON(w, h)
}

// --- plumbing ----------------------------------------------------------------

// maxBodyBytes bounds request bodies; inline workload specs fit easily.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return false
	}
	return true
}

// writeSpliced answers with a stored payload spliced between the compact
// head and tail of its reply, indented in one pass. The bytes equal
// writeJSON of the decoded reply: json.Marshal wrote the payload with the
// encoder's escaping, and Indent only lays it out. Indent also checks that
// the splice is one JSON value; a payload that breaks it answers 500.
func writeSpliced(w http.ResponseWriter, what, head string, payload []byte, tail string) {
	src := make([]byte, 0, len(head)+len(payload)+len(tail))
	src = append(append(append(src, head...), payload...), tail...)
	var out bytes.Buffer
	if err := json.Indent(&out, src, "", "  "); err != nil {
		httpError(w, http.StatusInternalServerError, "corrupt stored %s: %v", what, err)
		return
	}
	out.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	// Write errors mean the client hung up mid-response; the status line
	// is already sent, so there is nothing useful left to report.
	_, _ = w.Write(out.Bytes())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors mean the client hung up mid-response; the status line
	// is already sent, so there is nothing useful left to report.
	_ = enc.Encode(v)
}

func writeComputeError(w http.ResponseWriter, err error) {
	var busy busyError
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", strconv.Itoa(int(busy.after.Seconds())))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, "request abandoned: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best effort: the status code is already on the wire.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
