// Package client is the typed client library for the spurd experiment
// service: wire types mirroring the spur package's option structs
// (RunOptions, MemorySweepOptions, Table41Options), plus an HTTP client
// with retry/backoff that turns `cmd/sweep -remote` and `cmd/tables
// -remote` into thin front-ends over a shared, memoizing daemon.
//
// The wire types double as the service's canonical cache spec: Normalize
// applies the same defaults the local option fillers apply, so two
// requests that mean the same experiment hash to the same content address
// in the daemon's result store regardless of which fields were spelled
// out.
package client

import (
	"fmt"
	"sort"
	"strings"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Named workloads accepted by RunRequest.Workload.
const (
	WorkloadSLC    = "slc"
	WorkloadW1     = "workload1"
	WorkloadWindow = "window"
)

// HardenedOptions mirrors machine.RunOptions on the wire: it asks the
// server to drive the run through spur.RunHardened instead of the plain
// runner, so chaos configurations stay usable remotely.
type HardenedOptions struct {
	// AuditEvery audits machine invariants every N references (0 = final
	// audit only), as machine.RunOptions.AuditEvery.
	AuditEvery int64 `json:"audit_every,omitempty"`
	// DeadlineMS bounds the run's wall-clock time in milliseconds
	// (0 = unbounded). Deadline failures are never cached server-side.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// TraceTail is how many trailing trace records a failure bundle
	// keeps (0 = the hardened runner's default; at most
	// machine.MaxTraceTail).
	TraceTail int `json:"trace_tail,omitempty"`
}

// RunRequest asks the service for one simulator run. It mirrors
// spur.Config plus the hardened-runner options; zero fields take the same
// defaults spur.DefaultConfig applies locally.
type RunRequest struct {
	// Workload names a shipped workload ("slc", "workload1", "window");
	// Spec carries an inline workload instead. Exactly one may be set
	// (neither defaults to "slc").
	Workload string         `json:"workload,omitempty"`
	Spec     *workload.Spec `json:"spec,omitempty"`

	// MemMB and CacheKB size main memory and the virtual-address cache
	// (defaults: 8 MB, 128 KB).
	MemMB   int `json:"mem_mb,omitempty"`
	CacheKB int `json:"cache_kb,omitempty"`
	// Refs is the reference budget (default: the local reference scale).
	Refs int64 `json:"refs,omitempty"`
	// Seed drives the workload generators (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Dirty and Ref name the policies under test ("SPUR", "MISS", ...;
	// case-insensitive; defaults SPUR and MISS).
	Dirty string `json:"dirty,omitempty"`
	Ref   string `json:"ref,omitempty"`

	// Faults schedules deterministic fault injection, exactly as
	// spur.Config.Faults does locally.
	Faults []faultinject.Plan `json:"faults,omitempty"`
	// Hardened, when set, runs under spur.RunHardened with these options.
	Hardened *HardenedOptions `json:"hardened,omitempty"`
}

// Normalize validates the request and fills defaults in place, producing
// the canonical form the server hashes into a store key. It is idempotent.
func (r *RunRequest) Normalize() error {
	if r.Spec != nil {
		if r.Workload != "" {
			return fmt.Errorf("client: RunRequest sets both Workload and Spec")
		}
		if err := workload.ValidateSpec(*r.Spec); err != nil {
			return err
		}
	} else {
		if r.Workload == "" {
			r.Workload = WorkloadSLC
		}
		r.Workload = strings.ToLower(r.Workload)
		switch r.Workload {
		case WorkloadSLC, WorkloadW1, WorkloadWindow:
		default:
			return fmt.Errorf("client: unknown workload %q (want slc, workload1 or window)", r.Workload)
		}
	}
	def := machine.DefaultConfig()
	if r.MemMB == 0 {
		r.MemMB = def.MemoryBytes >> 20
	}
	if r.CacheKB == 0 {
		r.CacheKB = def.CacheBytes >> 10
	}
	if r.MemMB < 1 || r.CacheKB < 1 {
		return fmt.Errorf("client: non-positive sizes (mem %d MB, cache %d KB)", r.MemMB, r.CacheKB)
	}
	if r.Refs == 0 {
		r.Refs = def.TotalRefs
	}
	if r.Refs < 0 {
		return fmt.Errorf("client: negative reference budget %d", r.Refs)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Dirty == "" {
		r.Dirty = def.Dirty.String()
	}
	d, err := core.ParseDirtyPolicy(r.Dirty)
	if err != nil {
		return err
	}
	r.Dirty = d.String()
	if r.Ref == "" {
		r.Ref = def.Ref.String()
	}
	p, err := core.ParseRefPolicy(r.Ref)
	if err != nil {
		return err
	}
	r.Ref = p.String()
	if h := r.Hardened; h != nil {
		switch {
		case h.AuditEvery < 0:
			return fmt.Errorf("client: negative audit_every %d", h.AuditEvery)
		case h.DeadlineMS < 0:
			return fmt.Errorf("client: negative deadline_ms %d", h.DeadlineMS)
		case h.TraceTail < 0 || h.TraceTail > machine.MaxTraceTail:
			return fmt.Errorf("client: trace_tail %d outside [0, %d]", h.TraceTail, machine.MaxTraceTail)
		}
	}
	return nil
}

// RunResponse is the service's answer to a RunRequest.
type RunResponse struct {
	// Key is the result's content address in the daemon's store.
	Key string `json:"key"`
	// Cached reports that the reply ran no simulation: a store hit or a
	// fixed artifact.
	Cached bool `json:"cached"`
	// Result is the run summary (spur.Result).
	Result machine.Result `json:"result"`
	// Failure is non-nil when a hardened run was quarantined
	// (spur.RunFailure). Failed runs are never cached.
	Failure *machine.RunFailure `json:"failure,omitempty"`
}

// Sweep output formats.
const (
	FormatCSV   = "csv"
	FormatChart = "chart"
)

// SweepRequest mirrors spur.MemorySweepOptions on the wire: the memory-size
// study's result-determining fields, minus the execution knobs (Parallel,
// Progress, Context) the server owns. Zero fields take the same defaults
// the local sweep applies, so a remote sweep is byte-identical to a local
// serial one.
type SweepRequest struct {
	// Workloads ("SLC", "WORKLOAD1"; case-insensitive), SizesMB and
	// Policies ("MISS", "REF", "NOREF") span the sweep grid; defaults
	// match spur.MemorySweepOptions.
	Workloads []string `json:"workloads,omitempty"`
	SizesMB   []int    `json:"sizes_mb,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	// Refs per run (default 8M), Seed (default 1) and Reps per cell
	// (default 1), as in spur.MemorySweepOptions.
	Refs int64  `json:"refs,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	Reps int    `json:"reps,omitempty"`
	// AuditEvery forwards to the hardened runner each cell runs under.
	AuditEvery int64 `json:"audit_every,omitempty"`

	// Sample switches the sweep to the interval-sampling estimator
	// (spur.MemorySweepSampled): full-run projections with CI95 error bars
	// instead of exact counts. Sampled results live under their own store
	// kind and can never be served where an exact sweep was asked for.
	// Every sampling field is omitempty, so requests that predate sampling
	// hash to the same store keys as before.
	Sample bool `json:"sample,omitempty"`
	// Intervals, IntervalLen and Warmup forward to spur.SampleOptions
	// (0 = that type's defaults). They are ignored — and rejected by
	// Normalize — unless Sample is set.
	Intervals   int   `json:"intervals,omitempty"`
	IntervalLen int64 `json:"interval_len,omitempty"`
	Warmup      int64 `json:"warmup,omitempty"`

	// Format selects the response rendering: "csv" (default) or "chart".
	// It is presentation only and excluded from the store key — both
	// renderings of one spec share one stored result.
	Format string `json:"format,omitempty"`
}

// Normalize validates the request and fills defaults in place, producing
// the canonical form the server hashes into a store key.
func (r *SweepRequest) Normalize() error {
	if len(r.Workloads) == 0 {
		r.Workloads = []string{string(core.SLC), string(core.Workload1)}
	}
	for i, w := range r.Workloads {
		switch strings.ToUpper(w) {
		case string(core.SLC):
			r.Workloads[i] = string(core.SLC)
		case string(core.Workload1):
			r.Workloads[i] = string(core.Workload1)
		default:
			return fmt.Errorf("client: unknown sweep workload %q (want SLC or WORKLOAD1)", w)
		}
	}
	if len(r.SizesMB) == 0 {
		r.SizesMB = []int{4, 5, 6, 7, 8, 10, 12, 16}
	}
	for _, mb := range r.SizesMB {
		if mb < 1 {
			return fmt.Errorf("client: non-positive memory size %d MB", mb)
		}
	}
	if len(r.Policies) == 0 {
		for _, p := range core.RefPolicies {
			r.Policies = append(r.Policies, p.String())
		}
	}
	for i, s := range r.Policies {
		p, err := core.ParseRefPolicy(s)
		if err != nil {
			return err
		}
		r.Policies[i] = p.String()
	}
	if r.Refs == 0 {
		r.Refs = 8_000_000
	}
	if r.Refs < 0 {
		return fmt.Errorf("client: negative reference budget %d", r.Refs)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Reps <= 0 {
		r.Reps = 1
	}
	if r.AuditEvery < 0 {
		return fmt.Errorf("client: negative audit cadence %d", r.AuditEvery)
	}
	if !r.Sample && (r.Intervals != 0 || r.IntervalLen != 0 || r.Warmup != 0) {
		return fmt.Errorf("client: sampling parameters set without sample=true")
	}
	if r.Sample && r.AuditEvery != 0 {
		return fmt.Errorf("client: sampled sweeps do not run the audited exact pipeline (drop audit_every)")
	}
	if r.Intervals < 0 || r.IntervalLen < 0 || r.Warmup < 0 {
		return fmt.Errorf("client: negative sampling parameters (intervals %d, interval_len %d, warmup %d)",
			r.Intervals, r.IntervalLen, r.Warmup)
	}
	switch r.Format {
	case "":
		r.Format = FormatCSV
	case FormatCSV, FormatChart:
	default:
		return fmt.Errorf("client: unknown sweep format %q (want csv or chart)", r.Format)
	}
	if r.Sample && r.Format == FormatChart {
		return fmt.Errorf("client: sampled sweeps render as csv only (estimates carry error bars the chart cannot show)")
	}
	return nil
}

// SweepMeta describes how a sweep response was produced; the server sends
// it in headers alongside the CSV/chart body.
type SweepMeta struct {
	// Key is the sweep result's content address; Cached whether the rows
	// came from the store.
	Key    string
	Cached bool
}

// TableIDs lists the artifacts /v1/tables/{id} can produce, in the
// paper's order.
var TableIDs = []string{"2.1", "3.1", "3.2", "f3.1", "f3.2", "3.3", "3.4", "3.5", "4.1", "ext"}

// ValidTableID reports whether id names a servable artifact.
func ValidTableID(id string) bool {
	i := sort.SearchStrings(sortedTableIDs, id)
	return i < len(sortedTableIDs) && sortedTableIDs[i] == id
}

var sortedTableIDs = func() []string {
	ids := append([]string(nil), TableIDs...)
	sort.Strings(ids)
	return ids
}()

// TablesQuery parameterises a /v1/tables/{id} request; it mirrors the
// shared knobs of spur.Table33Options, spur.Table41Options and
// spur.CacheSweepOptions.
type TablesQuery struct {
	// Refs per run (0 = each table's default scale); Seed (default 1);
	// Reps for Table 4.1 (0 = its default 3).
	Refs int64  `json:"refs,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	Reps int    `json:"reps,omitempty"`
	// Paper includes the published values alongside (default true on the
	// wire: the server treats an absent parameter as true).
	Paper bool `json:"paper"`
}

// Normalize validates the query and fills defaults in place.
func (q *TablesQuery) Normalize() error {
	if q.Refs < 0 || q.Reps < 0 {
		return fmt.Errorf("client: negative refs/reps (%d, %d)", q.Refs, q.Reps)
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return nil
}

// Job is a request as spurd files it: the store kind, the normalized spec
// and the content address that spec hashes to. RunJob, SweepJob and
// TablesJob are the one place a request becomes a key: spurd's handlers
// store under it and Fleet routes by it.
type Job struct {
	Kind string
	Key  expstore.Key
	Spec any
}

func newJob(kind string, spec any) (Job, error) {
	key, err := expstore.KeyOf(spur.Version, kind, spec)
	return Job{Kind: kind, Key: key, Spec: spec}, err
}

// RunJob normalizes req in place and files it as a "run".
func RunJob(req *RunRequest) (Job, error) {
	if err := req.Normalize(); err != nil {
		return Job{}, err
	}
	return newJob("run", *req)
}

// SweepJob normalizes req in place and files it without its Format, which
// is presentation only: both renderings share one stored result. A sampled
// sweep is a "sweep-sampled", so an estimate with error bars is never
// served where an exact "sweep" was asked for, or the other way round.
func SweepJob(req *SweepRequest) (Job, error) {
	if err := req.Normalize(); err != nil {
		return Job{}, err
	}
	spec := *req
	spec.Format = ""
	if spec.Sample {
		return newJob("sweep-sampled", spec)
	}
	return newJob("sweep", spec)
}

// TablesJob normalizes q in place and files it as "tables/<id>".
func TablesJob(id string, q *TablesQuery) (Job, error) {
	if err := q.Normalize(); err != nil {
		return Job{}, err
	}
	return newJob("tables/"+id, *q)
}

// TablesResponse is the service's answer to /v1/tables/{id}: the artifact
// in the shared report.Doc serialization (see cmd/tables -json).
type TablesResponse struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Cached reports that the reply ran no simulation: a store hit or a
	// fixed artifact (tables 2.1, 3.1, 3.2 and figures 3.1, 3.2, which
	// spurd renders once and never stores).
	Cached bool `json:"cached"`
	// Docs holds the rendered artifacts: tables cell-by-cell, figures as
	// pre-rendered text.
	Docs []Doc `json:"docs"`
}

// Doc mirrors report.Doc on the wire.
type Doc struct {
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
	Text   string     `json:"text,omitempty"`
}

// Health is the /healthz response.
type Health struct {
	// Status is "ok" while serving, "draining" once shutdown has begun.
	Status string `json:"status"`
	// Version is the code version baked into every store key.
	Version string `json:"version"`
	// Store is the result store's counter snapshot.
	Store expstore.Stats `json:"store"`
	// Queue is the job queue's occupancy snapshot.
	Queue QueueStats `json:"queue"`
	// Jobs snapshots the durable job journal; nil when the daemon runs
	// without one.
	Jobs *JobsStats `json:"jobs,omitempty"`
	// Cluster snapshots fleet membership and the replication outbox; nil
	// for single-node daemons.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Uptime is the daemon's age.
	Uptime Duration `json:"uptime"`
}

// ClusterStats is the /healthz cluster section: enough node state for
// drills and load tests to assert on (the full probed membership view
// lives at GET /v1/cluster).
type ClusterStats struct {
	// Self is this node's advertised URL; Peers the static fleet size;
	// Replication the per-key replica count.
	Self        string `json:"self"`
	Peers       int    `json:"peers"`
	Replication int    `json:"replication"`
	// Outbox is the replication queue: its Pending field is the
	// undelivered (key, replica) backlog, OldestAgeSec the age of the
	// oldest still-owed intent.
	Outbox cluster.Stats `json:"outbox"`
	// Breakers maps each other peer's URL to this node's outgoing
	// circuit-breaker state for it: "closed", "open", or "half-open".
	Breakers map[string]string `json:"breakers,omitempty"`
}

// JobsStats snapshots the daemon's durable job journal.
type JobsStats struct {
	// Journaled jobs were accepted and journaled this process; Completed
	// of them finished (result persisted or deterministically failed).
	Journaled uint64 `json:"journaled"`
	Completed uint64 `json:"completed"`
	// Recovered counts jobs owed by a previous process and recomputed at
	// startup; Pending is the current accepted-but-unfinished count.
	Recovered uint64 `json:"recovered"`
	Pending   int    `json:"pending"`
}

// QueueStats snapshots the daemon's bounded job queue.
type QueueStats struct {
	// Running jobs hold worker slots; Waiting jobs are admitted but
	// queued. Beyond MaxQueue waiters the daemon sheds load with 429.
	Running  int `json:"running"`
	Waiting  int `json:"waiting"`
	MaxRun   int `json:"max_run"`
	MaxQueue int `json:"max_queue"`
	// Rejected counts requests shed with 429 + Retry-After.
	Rejected uint64 `json:"rejected"`
	// Deduped counts requests that piggybacked on an identical in-flight
	// computation instead of queueing their own.
	Deduped uint64 `json:"deduped"`
}

// Duration marshals as seconds.
type Duration time.Duration

// MarshalJSON renders the duration in seconds.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%.1f", time.Duration(d).Seconds())), nil
}

// UnmarshalJSON parses seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s float64
	if _, err := fmt.Sscanf(string(b), "%g", &s); err != nil {
		return err
	}
	*d = Duration(time.Duration(s * float64(time.Second)))
	return nil
}
