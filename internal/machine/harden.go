package machine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the hardened experiment runner. The plain Run assumes every
// component behaves perfectly and lets a single panic or invariant breach
// kill an entire multi-hour sweep; the hardened runner converts crashes into
// structured RunFailure artifacts (config + seed + last-N trace records, a
// reproducible-by-construction bundle), audits the machine's cross-structure
// invariants continuously instead of only post-run, and enforces per-run
// wall-clock deadlines — so a sweep quarantines a bad run and completes.

// FailureKind classifies how a hardened run died.
type FailureKind string

const (
	// FailPanic is a recovered crash (including vm.IOError exhaustion).
	FailPanic FailureKind = "panic"
	// FailAudit is a continuous-audit invariant breach.
	FailAudit FailureKind = "audit"
	// FailDeadline is a per-run wall-clock budget overrun.
	FailDeadline FailureKind = "deadline"
)

// RunOptions hardens one run: invariant-audit cadence, a wall-clock
// deadline, and what a failure's repro bundle should capture. The zero
// value is a plain run (final audit only, no deadline, default trace tail).
// None of the knobs affect simulated decisions, so hardened results are
// bit-identical to unhardened ones; the spurd daemon accepts the same
// knobs on the wire as repro/pkg/client.HardenedOptions.
type RunOptions struct {
	// AuditEvery invokes Audit every N references (continuous invariant
	// auditing). Zero disables mid-run audits; a final audit still runs.
	AuditEvery int64
	// Deadline is the per-run wall-clock budget; zero means none. The
	// deadline affects only where a run is cut off, never the simulated
	// decisions, so partial results stay deterministic per reference.
	Deadline time.Duration
	// TraceTail is how many trailing trace records the repro bundle
	// keeps (default 64, at most MaxTraceTail).
	TraceTail int
	// ArtifactDir, when set, receives a JSON repro bundle per failure.
	ArtifactDir string
}

const defaultTraceTail = 64

// MaxTraceTail bounds RunOptions.TraceTail at one batch of the reference
// loop. Larger values are clamped, so no request can make the tail ring
// allocate more than that.
const MaxTraceTail = trace.BatchSize

// RunFailure is the structured artifact of a failed hardened run: enough to
// reproduce the failure bit-for-bit (the config embeds the workload seed and
// the fault-injection plans) plus the trailing trace records and the
// injection log for diagnosis without a rerun.
type RunFailure struct {
	Kind   FailureKind `json:"kind"`
	Reason string      `json:"reason"`
	// Config reproduces the run: machine geometry, policies, Seed, and
	// the deterministic fault-injection plans.
	Config Config `json:"config"`
	Seed   uint64 `json:"seed"`
	// Refs is how many references completed before the failure.
	Refs int64 `json:"refs"`
	// Tail is the last-N trace records leading into the failure.
	Tail []trace.Rec `json:"tail,omitempty"`
	// Injections is the fault injector's record of what actually fired.
	Injections []faultinject.Record `json:"injections,omitempty"`
	// Stack is the recovered goroutine stack (panics only).
	Stack string `json:"stack,omitempty"`
	// BundlePath is where the bundle was written, if anywhere.
	BundlePath string `json:"-"`
}

// Error implements error.
func (f *RunFailure) Error() string {
	return fmt.Sprintf("run failed (%s) after %d refs: %s", f.Kind, f.Refs, f.Reason)
}

// WriteBundle writes the failure as an indented JSON repro bundle under dir,
// creating the directory if needed, and records the path in BundlePath. The
// filename is derived from the run configuration; collisions get a numeric
// suffix so sweep repetitions never clobber each other.
func (f *RunFailure) WriteBundle(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("runfailure-%s-%s-%dmb-seed%d-%s",
		f.Config.Dirty, f.Config.Ref, f.Config.MemoryBytes>>20, f.Seed, f.Kind)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	for i := 0; ; i++ {
		name := base + ".json"
		if i > 0 {
			name = fmt.Sprintf("%s-%d.json", base, i)
		}
		path := filepath.Join(dir, name)
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := w.Write(data)
		// Bundles exist to survive the crash that produced them; fsync so
		// a dying process (or machine) cannot take the evidence with it.
		serr := w.Sync()
		cerr := w.Close()
		if werr != nil {
			return "", werr
		}
		if serr != nil {
			return "", serr
		}
		if cerr != nil {
			return "", cerr
		}
		f.BundlePath = path
		return path, nil
	}
}

// tailBuffer is a fixed-size ring of the most recent trace records,
// refilled a batch at a time: a full ring overwrites its oldest slots
// instead of shifting the whole buffer.
type tailBuffer struct {
	recs []trace.Rec
	n    int
	head int // index of the oldest record once the ring is full
}

func newTailBuffer(n int) *tailBuffer {
	if n <= 0 {
		n = defaultTraceTail
	}
	n = min(n, MaxTraceTail)
	return &tailBuffer{recs: make([]trace.Rec, 0, n), n: n}
}

// add appends a batch, keeping the last n records.
func (t *tailBuffer) add(b []trace.Rec) {
	b = b[max(len(b)-t.n, 0):]
	k := min(t.n-len(t.recs), len(b))
	t.recs = append(t.recs, b[:k]...)
	for b = b[k:]; len(b) > 0; b = b[k:] {
		k = copy(t.recs[t.head:], b)
		t.head = (t.head + k) % t.n
	}
}

// snapshot returns the buffered records, oldest first.
func (t *tailBuffer) snapshot() []trace.Rec {
	out := make([]trace.Rec, len(t.recs))
	k := copy(out, t.recs[t.head:])
	copy(out[k:], t.recs[:t.head])
	return out
}

// failure assembles a RunFailure for this machine and writes the bundle if
// dir is set.
func (m *Machine) failure(kind FailureKind, reason, stack string, tail *tailBuffer, dir string) *RunFailure {
	return (&RunFailure{
		Kind: kind, Reason: reason, Config: m.Cfg, Seed: m.Cfg.Seed, Refs: m.refs,
		Tail: tail.snapshot(), Injections: m.Inject.Log(), Stack: stack,
	}).bundle(dir)
}

// bundle writes f's repro bundle under dir when dir is set. A write error
// is reported in Reason rather than masking the original failure.
func (f *RunFailure) bundle(dir string) *RunFailure {
	if dir != "" {
		if _, err := f.WriteBundle(dir); err != nil {
			f.Reason += fmt.Sprintf(" (bundle write failed: %v)", err)
		}
	}
	return f
}

// RunHardened drives up to n references from src through the engine under
// panic recovery, continuous invariant auditing, and an optional wall-clock
// deadline. It always returns the cumulative snapshot; a non-nil RunFailure
// reports why the run stopped early. Counters accumulate across calls, as
// with Run.
//
// It is Run's loop with work at batch ends: batches split at multiples of
// AuditEvery, so every audit lands on the reference a per-reference loop
// would audit after, and the deadline is read at each batch end, at most
// trace.BatchSize references apart.
func (m *Machine) RunHardened(src trace.BatchSource, n int64, opts RunOptions) (Result, *RunFailure) {
	tail := newTailBuffer(opts.TraceTail)
	// The deadline reads the wall clock, which is normally banned in model
	// code: simulated results must be a pure function of the spec. It is
	// safe here because the clock decides only *whether the run is cut
	// off*, never any simulated value — a run that beats its deadline is
	// bit-identical to an unhardened run, and one that doesn't returns a
	// FailDeadline artifact, not a result row (the daemon's store never
	// caches failures as results).
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline) //spurlint:ignore determinism — wall clock only aborts the run; it cannot alter any simulated value
	}

	buf := make([]trace.Rec, trace.BatchSize)
	start, issued := m.refs, m.issued()
	var fail *RunFailure
	func() {
		defer func() {
			if r := recover(); r != nil {
				// The engine counts a reference before it can fail, so
				// the count since the last batch end says which record
				// of buf was running: the tail ends with it and Refs
				// stops just short of it. A panic in the source leaves
				// the count at the batch end.
				if k := int(m.issued() - issued); k > 0 {
					tail.add(buf[:k])
					m.refs += int64(k - 1)
				}
				fail = m.failure(FailPanic, fmt.Sprint(r), string(debug.Stack()), tail, opts.ArtifactDir)
			}
		}()
		m.run(src, buf, n, opts.AuditEvery, func(b []trace.Rec) bool {
			issued = m.issued()
			tail.add(b)
			if opts.AuditEvery > 0 && (m.refs-start)%opts.AuditEvery == 0 {
				if err := Audit(m); err != nil {
					fail = m.failure(FailAudit, err.Error(), "", tail, opts.ArtifactDir)
					return false
				}
			}
			//spurlint:ignore determinism — wall clock only aborts the run; it cannot alter any simulated value
			if !deadline.IsZero() && time.Now().After(deadline) {
				fail = m.failure(FailDeadline,
					fmt.Sprintf("run exceeded its %v budget", opts.Deadline), "", tail, opts.ArtifactDir)
				return false
			}
			return true
		})
		if fail == nil {
			if err := Audit(m); err != nil {
				fail = m.failure(FailAudit, "post-run: "+err.Error(), "", tail, opts.ArtifactDir)
			}
		}
	}()
	return m.Snapshot(), fail
}

// issued is how many references the engine has started: Access counts each
// one by its operation before its probe, miss or fault handling can panic.
func (m *Machine) issued() uint64 {
	return m.Ctr.Count(counters.EvIFetch) + m.Ctr.Count(counters.EvRead) + m.Ctr.Count(counters.EvWrite)
}

// RunSpecHardened assembles a fresh machine for cfg, instantiates the
// workload spec on it, and runs the configured reference budget under the
// hardened runner, and returns the machine for counters beyond the Result.
// Machine and workload construction are guarded too: a panicking
// constructor yields a RunFailure and no machine instead of killing the caller.
func RunSpecHardened(cfg Config, spec workload.Spec, opts RunOptions) (m *Machine, res Result, fail *RunFailure) {
	var script *workload.Script
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail = (&RunFailure{
					Kind: FailPanic, Reason: "setup: " + fmt.Sprint(r),
					Config: cfg, Seed: cfg.Seed, Stack: string(debug.Stack()),
				}).bundle(opts.ArtifactDir)
			}
		}()
		m = New(cfg)
		script = workload.NewScript(m, cfg.Seed, spec)
	}()
	if fail != nil {
		return nil, Result{}, fail
	}
	res, fail = m.RunHardened(script, cfg.TotalRefs, opts)
	return m, res, fail
}
