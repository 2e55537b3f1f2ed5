package spur

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/journal"
	"repro/internal/parallel"
)

// This file makes the long experiment drivers crash-only. A journaled sweep
// appends one fsynced record per completed (cell, rep) run; a resumed sweep
// replays the journal, pre-seeds the finished slots, and computes only what
// is missing. Because every run's seed is a pure function of (experiment
// seed, cell, rep), the resumed output is byte-identical to an
// uninterrupted run — which the tests assert, byte for byte.
//
// The journal header carries the canonical spec hash (the same
// expstore.KeyOf address the spurd daemon memoizes under), so resuming
// against a journal written for a different experiment fails loudly
// instead of silently mixing results across specs.

// sweepJournalKind is the journal kind (journal.Header.Kind) of the
// checkpointable memory sweep, and so of Table 4.1 too.
const sweepJournalKind = "memsweep"

// sweepCell is one (workload, memory size, policy) coordinate of a sweep,
// in canonical cell-index order.
type sweepCell struct {
	wl  core.WorkloadName
	mb  int
	pol RefPolicy
}

// sweepCells enumerates a MemorySweep's cells in canonical order.
func sweepCells(o MemorySweepOptions) []sweepCell {
	var cells []sweepCell
	for _, wl := range o.Workloads {
		for _, mb := range o.SizesMB {
			for _, pol := range o.Policies {
				cells = append(cells, sweepCell{wl, mb, pol})
			}
		}
	}
	return cells
}

// ckptEntry is one journal record: a completed (cell, rep) run. The
// coordinates are stored both as indices (the slot) and as names (so a
// replay can verify the journal matches the spec it claims).
type ckptEntry struct {
	Cell     int         `json:"cell"`
	Rep      int         `json:"rep"`
	Workload string      `json:"workload"`
	MemMB    int         `json:"mem_mb"`
	Policy   string      `json:"policy"`
	Seed     uint64      `json:"seed"`
	Result   Result      `json:"result"`
	Failure  *RunFailure `json:"failure,omitempty"`
}

// sweepSpecKey is the canonical spec hash of a (filled) sweep: every knob
// that shapes results participates; scheduling knobs do not.
func sweepSpecKey(o MemorySweepOptions) (expstore.Key, error) {
	pols := make([]string, len(o.Policies))
	for i, p := range o.Policies {
		pols[i] = p.String()
	}
	return expstore.KeyOf(Version, sweepJournalKind, struct {
		Workloads  []core.WorkloadName `json:"workloads"`
		SizesMB    []int               `json:"sizes_mb"`
		Policies   []string            `json:"policies"`
		Refs       int64               `json:"refs"`
		Seed       uint64              `json:"seed"`
		Reps       int                 `json:"reps"`
		AuditEvery int64               `json:"audit_every"`
	}{o.Workloads, o.SizesMB, pols, o.Refs, o.Seed, o.Reps, o.AuditEvery})
}

// ckptWriter serializes concurrent per-run journal appends and keeps the
// first append error.
type ckptWriter struct {
	mu  sync.Mutex
	w   *journal.Writer
	err error
}

func (c *ckptWriter) append(e ckptEntry) {
	b, err := json.Marshal(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if err != nil {
		c.err = fmt.Errorf("spur: encoding checkpoint record: %w", err)
		return
	}
	c.err = c.w.Append(b)
}

func (c *ckptWriter) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cerr := c.w.Close(); c.err == nil {
		c.err = cerr
	}
	return c.err
}

// openCkpt creates (resume=false) or replays (resume=true) a checkpoint
// journal, validating a resumed journal's header against the caller's kind,
// spec hash and code version.
func openCkpt(path string, resume bool, hdr journal.Header) (*journal.Writer, [][]byte, error) {
	if !resume {
		w, err := journal.Create(path, hdr)
		return w, nil, err
	}
	w, rep, err := journal.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if rep.Header != hdr {
		_ = w.Close() // refusing the journal; nothing was written
		return nil, nil, fmt.Errorf(
			"spur: journal %s was written for a different experiment: journal kind=%q spec=%.12s… version=%q, this run kind=%q spec=%.12s… version=%q — refusing to reuse results across specs",
			path, rep.Header.Kind, rep.Header.SpecKey, rep.Header.Version,
			hdr.Kind, hdr.SpecKey, hdr.Version)
	}
	return w, rep.Entries, nil
}

// decodeCkptEntries validates replayed records against the design: indices
// in range, coordinate names matching the cell, and the recorded seed equal
// to the seed the design derives for that slot. A duplicate (cell, rep) is
// harmless (by determinism both records hold identical results; the last
// wins).
func decodeCkptEntries(raw [][]byte, cells []sweepCell, seed uint64, reps int) ([]ckptEntry, map[int]bool, error) {
	var entries []ckptEntry
	done := make(map[int]bool)
	for i, b := range raw {
		var e ckptEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, nil, fmt.Errorf("spur: checkpoint record %d: %w", i, err)
		}
		if e.Cell < 0 || e.Cell >= len(cells) || e.Rep < 0 || e.Rep >= reps {
			return nil, nil, fmt.Errorf("spur: checkpoint record %d: coordinates (%d,%d) outside the %d-cell × %d-rep design", i, e.Cell, e.Rep, len(cells), reps)
		}
		c := cells[e.Cell]
		if string(c.wl) != e.Workload || c.mb != e.MemMB || c.pol.String() != e.Policy {
			return nil, nil, fmt.Errorf("spur: checkpoint record %d: cell %d is (%s, %d MB, %s) in this design but the journal says (%s, %d MB, %s)",
				i, e.Cell, c.wl, c.mb, c.pol, e.Workload, e.MemMB, e.Policy)
		}
		if want := parallel.DeriveSeed(seed, uint64(e.Cell), uint64(e.Rep)); e.Seed != want {
			return nil, nil, fmt.Errorf("spur: checkpoint record %d: seed %d does not match the design's derived seed for (%d,%d)", i, e.Seed, e.Cell, e.Rep)
		}
		entries = append(entries, e)
		done[e.Cell*reps+e.Rep] = true
	}
	return entries, done, nil
}

// MemorySweepJournaled runs MemorySweep with a crash checkpoint journal at
// path: every completed (cell, rep) run is appended and fsynced before the
// sweep moves on, so a SIGKILL loses at most the runs in flight. With
// resume=false the journal must not exist; with resume=true it is replayed
// — after validating that its header matches this sweep's canonical spec
// hash — and only the missing runs are computed. The rows (and therefore
// MemorySweepCSV) are byte-identical to an uninterrupted run.
//
// Sweeps with a Configure hook or a Deadline cannot be journaled: the hook
// is not part of the hashable spec, and deadline quarantines depend on
// machine load, so neither replays deterministically.
func MemorySweepJournaled(opts MemorySweepOptions, path string, resume bool) ([]MemorySweepRow, error) {
	if opts.Configure != nil {
		return nil, fmt.Errorf("spur: journaled sweeps cannot use Configure: the hook is not part of the hashable spec")
	}
	if opts.Deadline != 0 {
		return nil, fmt.Errorf("spur: journaled sweeps cannot use Deadline: deadline quarantines are load-dependent and do not replay deterministically")
	}
	opts.fill()
	key, err := sweepSpecKey(opts)
	if err != nil {
		return nil, err
	}
	hdr := journal.Header{Kind: sweepJournalKind, SpecKey: string(key), Version: Version}
	w, raw, err := openCkpt(path, resume, hdr)
	if err != nil {
		return nil, err
	}
	cells := sweepCells(opts)
	entries, done, err := decodeCkptEntries(raw, cells, opts.Seed, opts.Reps)
	if err != nil {
		_ = w.Close() // refusing the journal; nothing was written
		return nil, err
	}

	ck := &ckptWriter{w: w}
	opts.preseed = entries
	opts.skipDone = func(cell, rep int) bool { return done[cell*opts.Reps+rep] }
	opts.onRep = func(cell, rep int, r SweepRep) {
		c := cells[cell]
		ck.append(ckptEntry{
			Cell: cell, Rep: rep,
			Workload: string(c.wl), MemMB: c.mb, Policy: c.pol.String(),
			Seed: r.Seed, Result: r.Result, Failure: r.Failure,
		})
	}
	rows := MemorySweep(opts)
	if err := ck.close(); err != nil {
		return rows, err
	}
	return rows, nil
}
