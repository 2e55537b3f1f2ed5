package spur

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
)

func ckptSweepOpts() MemorySweepOptions {
	return MemorySweepOptions{
		SizesMB:   []int{5, 6},
		Workloads: []core.WorkloadName{core.SLC},
		Refs:      200_000,
		Seed:      11,
		Reps:      2,
		Parallel:  4,
	}
}

func TestMemorySweepJournaledMatchesUninterrupted(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(ckptSweepOpts()))

	path := filepath.Join(t.TempDir(), "sweep.journal")
	rows, err := MemorySweepJournaled(ckptSweepOpts(), path, false)
	if err != nil {
		t.Fatalf("MemorySweepJournaled: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("journaled sweep CSV differs from plain sweep:\n%s\nvs\n%s", got, baseline)
	}

	// Resuming a *complete* journal recomputes nothing and still matches.
	rows, err = MemorySweepJournaled(ckptSweepOpts(), path, true)
	if err != nil {
		t.Fatalf("resume of complete journal: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("resumed-complete CSV differs:\n%s\nvs\n%s", got, baseline)
	}
}

func TestMemorySweepJournaledResumeAfterInterrupt(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(ckptSweepOpts()))

	// Interrupt the first attempt by cancelling its context after a few
	// runs complete; the journal keeps what finished.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	ctx, cancel := context.WithCancel(context.Background())
	opts := ckptSweepOpts()
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	if _, err := MemorySweepJournaled(opts, path, false); err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	rep, err := journal.Replay(path)
	if err != nil {
		t.Fatalf("replaying interrupted journal: %v", err)
	}
	if len(rep.Entries) == 0 || len(rep.Entries) >= 12 {
		t.Fatalf("interrupted journal has %d entries, want a strict partial", len(rep.Entries))
	}

	// Resume with a fresh context: the completed runs are reused, the rest
	// computed, and the CSV is byte-identical to the uninterrupted run.
	rows, err := MemorySweepJournaled(ckptSweepOpts(), path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", got, baseline)
	}
}

func TestMemorySweepJournaledSpecMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := MemorySweepJournaled(ckptSweepOpts(), path, false); err != nil {
		t.Fatal(err)
	}

	wrong := ckptSweepOpts()
	wrong.Seed = 999 // different spec, same journal
	_, err := MemorySweepJournaled(wrong, path, true)
	if err == nil {
		t.Fatal("resume with a different spec succeeded")
	}
	if !strings.Contains(err.Error(), "different experiment") {
		t.Fatalf("mismatch error %q does not name the cause", err)
	}

	// Creating fresh over an existing journal also fails loudly.
	if _, err := MemorySweepJournaled(ckptSweepOpts(), path, false); err == nil {
		t.Fatal("fresh journal over an existing file succeeded")
	}
}

func TestMemorySweepJournaledRejectsUnhashableKnobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	opts := ckptSweepOpts()
	opts.Configure = func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy) {}
	if _, err := MemorySweepJournaled(opts, path, false); err == nil {
		t.Error("journaled sweep with Configure succeeded")
	}
	opts = ckptSweepOpts()
	opts.Deadline = 1
	if _, err := MemorySweepJournaled(opts, path, false); err == nil {
		t.Error("journaled sweep with Deadline succeeded")
	}
}

func TestTable41JournaledResume(t *testing.T) {
	base := Table41Options{Refs: 150_000, Reps: 2, Seed: 5, SizesMB: []int{5}, Parallel: 4}
	baseline := Table41(base)

	path := filepath.Join(t.TempDir(), "t41.journal")
	ctx, cancel := context.WithCancel(context.Background())
	opts := base
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := Table41Journaled(opts, path, false); err != nil {
		t.Fatalf("interrupted table 4.1: %v", err)
	}

	rows, err := Table41Journaled(base, path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rows, baseline) {
		t.Fatalf("resumed Table 4.1 differs from uninterrupted run:\n%+v\nvs\n%+v", rows, baseline)
	}

	// The rendered table (what cmd/tables prints) is identical too.
	if got, want := RenderTable41(rows, true).String(), RenderTable41(baseline, true).String(); got != want {
		t.Fatalf("rendered table differs:\n%s\nvs\n%s", got, want)
	}

	// A Table 4.1 journal is the memory sweep's journal for Table 4.1's
	// grid: MemorySweepJournaled over that grid resumes it, and any other
	// spec is refused.
	grid := func() MemorySweepOptions {
		return MemorySweepOptions{
			Workloads: []core.WorkloadName{core.SLC, core.Workload1},
			SizesMB:   []int{5},
			Policies:  RefPolicies,
			Refs:      150_000,
			Seed:      5,
			Reps:      2,
		}
	}
	sw, err := MemorySweepJournaled(grid(), path, true)
	if err != nil {
		t.Fatalf("memory sweep over Table 4.1's grid refused its journal: %v", err)
	}
	if got := table41Rows(sw); !reflect.DeepEqual(got, baseline) {
		t.Fatalf("sweep resumed from the Table 4.1 journal gives other rows:\n%+v\nvs\n%+v", got, baseline)
	}
	for name, edit := range map[string]func(*MemorySweepOptions){
		"seed":        func(o *MemorySweepOptions) { o.Seed = 6 },
		"refs":        func(o *MemorySweepOptions) { o.Refs = 160_000 },
		"reps":        func(o *MemorySweepOptions) { o.Reps = 3 },
		"sizes":       func(o *MemorySweepOptions) { o.SizesMB = []int{6} },
		"workloads":   func(o *MemorySweepOptions) { o.Workloads = []core.WorkloadName{core.SLC} },
		"policies":    func(o *MemorySweepOptions) { o.Policies = []RefPolicy{RefMISS, RefTRUE} },
		"audit_every": func(o *MemorySweepOptions) { o.AuditEvery = 1000 },
	} {
		o := grid()
		edit(&o)
		_, err := MemorySweepJournaled(o, path, true)
		if err == nil || !strings.Contains(err.Error(), "different experiment") {
			t.Errorf("a sweep with another %s resumed the Table 4.1 journal (err %v)", name, err)
		}
	}
}
