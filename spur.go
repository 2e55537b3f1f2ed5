// Package spur reproduces Wood & Katz, "Supporting Reference and Dirty Bits
// in SPUR's Virtual Address Cache" (ISCA 1989) as an executable system: a
// simulator of the SPUR memory system (128 KB direct-mapped virtual-address
// cache, in-cache address translation, Berkeley Ownership coherency,
// performance counters), a Sprite-like virtual memory system, the paper's
// five dirty-bit and three reference-bit policies, its two synthetic
// workloads, and drivers that regenerate every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	cfg := spur.DefaultConfig()
//	cfg.MemoryBytes = spur.MiB(6)
//	res := spur.Run(cfg, spur.Workload1())
//	fmt.Println(res.Events.Nds, res.Events.PageIns)
//
// The per-table drivers (Table33, Table34, Table35, Table41, Figure31, …)
// return structured rows plus renderings matching the paper's layout; the
// cmd/tables command prints them all, next to the published values.
package spur

import (
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/timing"
	"repro/internal/workload"
)

// Version is the reproduction's code version. The experiment service bakes
// it into every content address in its result store, so upgrading the
// simulator invalidates memoized results wholesale instead of serving
// stale numbers. Bump it whenever a change can alter any experiment's
// output.
const Version = "4"

// Config selects machine and experiment parameters; see machine.Config.
type Config = machine.Config

// Result is one run's summary; see machine.Result.
type Result = machine.Result

// Spec is a workload description; see workload.Spec.
type Spec = workload.Spec

// Events is the paper's event-frequency vocabulary; see core.Events.
type Events = core.Events

// DirtyPolicy selects a dirty-bit implementation alternative (Table 3.1).
type DirtyPolicy = core.DirtyPolicy

// RefPolicy selects a reference-bit policy (Section 4).
type RefPolicy = core.RefPolicy

// The dirty-bit implementation alternatives of Table 3.1.
const (
	DirtyMIN   = core.DirtyMIN
	DirtyFAULT = core.DirtyFAULT
	DirtyFLUSH = core.DirtyFLUSH
	DirtySPUR  = core.DirtySPUR
	DirtyWRITE = core.DirtyWRITE
)

// The reference-bit policies of Section 4.
const (
	RefMISS = core.RefMISS
	RefTRUE = core.RefTRUE
	RefNONE = core.RefNONE
)

// DirtyPolicies lists the Table 3.1 alternatives in order.
var DirtyPolicies = core.DirtyPolicies

// RefPolicies lists the reference-bit policies in Table 4.1 order.
var RefPolicies = core.RefPolicies

// MiB converts a mebibyte count to bytes with the arithmetic done in 64
// bits and range-checked; see core.MiB. All byte-size configuration should
// go through it (spurlint's countersafe check enforces this) so `mb << 20`
// can never silently overflow a 32-bit int again.
func MiB(mb int) int { return core.MiB(mb) }

// DefaultConfig returns the prototype configuration (Table 2.1) at the
// reproduction's reference scale: 8 MB of memory, the SPUR dirty-bit policy
// and the MISS reference-bit policy, 20M references.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Timing returns the default cycle-cost parameters (Tables 2.1 and 3.2).
func Timing() timing.Params { return timing.Default() }

// Workload1 returns the CAD-developer workload of Section 2.
func Workload1() Spec { return workload.Workload1Spec() }

// SLC returns the SPUR Common Lisp compiler workload of Section 2.
func SLC() Spec { return workload.SLCSpec() }

// specOf returns the spec of a memory-sweep workload: WORKLOAD1's for
// core.Workload1 and SLC's otherwise.
func specOf(wl core.WorkloadName) Spec {
	if wl == core.Workload1 {
		return Workload1()
	}
	return SLC()
}

// Window returns the workstation window-system workload the paper could not
// run ("no window system currently runs on SPUR"): a window server over a
// shared frame buffer, interactive clients, and a background compile.
func Window() Spec { return workload.WindowSpec() }

// ReadSpec parses and validates a JSON workload spec (see
// workload.WriteSpec for producing editable templates from the shipped
// workloads).
var ReadSpec = workload.ReadSpec

// WriteSpec serializes a workload spec as editable JSON.
var WriteSpec = workload.WriteSpec

// Run assembles a machine for cfg and drives the workload through it.
func Run(cfg Config, spec Spec) Result { return machine.RunSpec(cfg, spec) }

// NewMachine assembles a machine without running anything, for callers that
// want to drive traces or inspect internals.
func NewMachine(cfg Config) *machine.Machine { return machine.New(cfg) }

// MemorySizesMB are the paper's main-memory sweep points.
var MemorySizesMB = core.MemorySizesMB

// --- Chaos & robustness -----------------------------------------------------

// FaultPlan schedules one deterministic injected fault stream; put plans in
// Config.Faults. See faultinject.Plan.
type FaultPlan = faultinject.Plan

// FaultKind names an injectable fault; see faultinject.Kind.
type FaultKind = faultinject.Kind

// The injectable fault kinds.
const (
	// FaultCounterWrap forces the 32-bit hardware counters to the brink of
	// wraparound (the 64-bit software shadow must survive).
	FaultCounterWrap = faultinject.CounterWrap
	// FaultSnoopDrop silently drops a snooper's view of a bus transaction.
	FaultSnoopDrop = faultinject.SnoopDrop
	// FaultSnoopDelay stretches a bus transaction by one block transfer.
	FaultSnoopDelay = faultinject.SnoopDelay
	// FaultPageInIO makes one backing-store read attempt fail transiently.
	FaultPageInIO = faultinject.PageInIO
	// FaultDirtyBitFlip flips the cached page-dirty state of a hit line.
	FaultDirtyBitFlip = faultinject.DirtyBitFlip
	// FaultLineCorrupt corrupts a hit line's address tag.
	FaultLineCorrupt = faultinject.LineCorrupt
)

// ParseFaultKind maps a fault name ("pagein-io", "line-corrupt", ...) to its
// kind, for command-line use.
var ParseFaultKind = faultinject.ParseKind

// RunOptions hardens a run; see machine.RunOptions.
type RunOptions = machine.RunOptions

// RunFailure is the structured artifact of a failed hardened run; see
// machine.RunFailure.
type RunFailure = machine.RunFailure

// FailureKind classifies how a hardened run died.
type FailureKind = machine.FailureKind

// The failure classifications.
const (
	FailPanic    = machine.FailPanic
	FailAudit    = machine.FailAudit
	FailDeadline = machine.FailDeadline
)

// RunHardened is Run under panic recovery, continuous invariant auditing,
// per-run deadlines, and repro-bundle capture. A non-nil RunFailure reports
// why the run stopped early; the Result is whatever completed.
func RunHardened(cfg Config, spec Spec, opts RunOptions) (Result, *RunFailure) {
	_, res, fail := machine.RunSpecHardened(cfg, spec, opts)
	return res, fail
}
