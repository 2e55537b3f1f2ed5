package spur

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/report"
)

func storeSweepOpts() MemorySweepOptions {
	return MemorySweepOptions{
		SizesMB:   []int{5, 6},
		Workloads: []core.WorkloadName{core.SLC},
		Refs:      200_000,
		Seed:      11,
		Reps:      2,
		Parallel:  4,
	}
}

// openStore opens a fresh handle on the store at dir, so its Stats count
// only what the next sweep does.
func openStore(t *testing.T, dir string) *expstore.Store {
	t.Helper()
	st, err := expstore.Open(dir, expstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMemorySweepStoredMatchesUninterrupted(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(storeSweepOpts()))

	dir := t.TempDir()
	rows, err := MemorySweepStored(storeSweepOpts(), dir)
	if err != nil {
		t.Fatalf("MemorySweepStored: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("stored sweep CSV differs from plain sweep:\n%s\nvs\n%s", got, baseline)
	}

	// Rerunning over a *complete* store recomputes nothing and still matches.
	st := openStore(t, dir)
	rows, err = memorySweep(storeSweepOpts(), st)
	if err != nil {
		t.Fatalf("rerun over a complete store: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("rerun CSV differs:\n%s\nvs\n%s", got, baseline)
	}
	if s := st.Stats(); s.Hits() != 12 || s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("rerun over a complete store: %d hits, %d misses, %d puts; want 12, 0, 0", s.Hits(), s.Misses, s.Puts)
	}
}

func TestMemorySweepStoredResumeAfterInterrupt(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(storeSweepOpts()))

	// Interrupt the first attempt by cancelling its context after a few
	// runs complete; the store keeps what finished.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := storeSweepOpts()
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	if _, err := MemorySweepStored(opts, dir); err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	st := openStore(t, dir)
	stored := st.Len()
	if stored < 1 || stored > 11 {
		t.Fatalf("interrupted sweep stored %d runs, want a strict partial of 12", stored)
	}

	// Rerun with a fresh context: the stored runs are reused, the rest
	// computed, and the CSV is byte-identical to the uninterrupted run.
	rows, err := memorySweep(storeSweepOpts(), st)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("rerun CSV differs from uninterrupted run:\n%s\nvs\n%s", got, baseline)
	}
	if s := st.Stats(); s.Hits() != uint64(stored) || s.Puts != uint64(12-stored) {
		t.Fatalf("rerun: %d hits and %d puts, want %d and %d", s.Hits(), s.Puts, stored, 12-stored)
	}
}

// TestMemorySweepStoredOtherSpecMisses: a store is keyed by run, so a sweep
// with another seed shares the directory but is never served the first
// sweep's runs; it prints exactly what a fresh sweep of its own spec does.
func TestMemorySweepStoredOtherSpecMisses(t *testing.T) {
	dir := t.TempDir()
	if _, err := MemorySweepStored(storeSweepOpts(), dir); err != nil {
		t.Fatal(err)
	}

	other := storeSweepOpts()
	other.Seed = 999
	st := openStore(t, dir)
	rows, err := memorySweep(other, st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := MemorySweepCSV(rows), MemorySweepCSV(MemorySweep(other)); got != want {
		t.Fatalf("seed-999 sweep over a seed-11 store differs from a fresh one:\n%s\nvs\n%s", got, want)
	}
	if s := st.Stats(); s.Hits() != 0 {
		t.Fatalf("seed-999 sweep was served %d seed-11 runs", s.Hits())
	}
}

// TestSweepRunKeyPinned: a stored sweep keeps each run under the address
// it has had since runs were first stored, so a store written by an
// earlier build still serves: this is SLC at 5 MB under MISS, repetition
// 0 of storeSweepOpts.
func TestSweepRunKeyPinned(t *testing.T) {
	const want = expstore.Key("e2e5fb5ee43da4b099241548401dd43f86cfa059642a00c063f316f20028c106")
	dir := t.TempDir()
	if _, err := MemorySweepStored(storeSweepOpts(), dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := openStore(t, dir).GetSealed(want); !ok {
		t.Fatalf("the stored sweep has no run under %s", want)
	}
}

// TestTableDocsCompleteStoreComputesNothing: every table's runs share one
// store. Once "all" has filled it, each artifact that simulates is printed
// again from the store alone: no miss, no put, the same docs.
func TestTableDocsCompleteStoreComputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Table 3.5 at its full length")
	}
	o := Table41Options{Refs: 60_000, Reps: 2, Seed: 3}
	dir := t.TempDir()
	all, err := TableDocs("all", o, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]report.Doc{}
	for _, d := range all {
		first[d.Title] = d
	}
	// The docs are those of each table's own driver.
	t33 := Table33(Table33Options{Refs: o.Refs, Seed: o.Seed})
	for _, want := range []report.Doc{
		RenderTable33(t33, true).Doc(),
		Table34(t33).Doc(),
		RenderTable41(Table41(o), true).Doc(),
		RenderCacheSweep(CacheSweep(CacheSweepOptions{Refs: o.Refs, Seed: o.Seed})).Doc(),
		RenderFaultHandlerSweep(FaultHandlerSweep(t33[0].Events)).Doc(),
	} {
		if !reflect.DeepEqual(first[want.Title], want) {
			t.Errorf("TableDocs' %q differs from its table's own driver", want.Title)
		}
	}
	for _, id := range []string{"3.3", "3.5", "ext", "4.1", "all", "claims"} {
		st := openStore(t, dir)
		docs, err := driver{st: st}.docs(id, o, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, d := range docs {
			if !reflect.DeepEqual(d, first[d.Title]) {
				t.Errorf("%s: %q over a complete store differs from the run that filled it", id, d.Title)
			}
		}
		if s := st.Stats(); s.Hits() == 0 || s.Misses != 0 || s.Puts != 0 {
			t.Errorf("%s over a complete store: %d hits, %d misses, %d puts; want 0 misses and puts", id, s.Hits(), s.Misses, s.Puts)
		}
	}
}

// TestTableStopsAtQuarantinedCell: a Table 3.3 cell armed to fail (every
// backing-store read fails, so page-in retries run out) stops its table
// with its reason, once its siblings have finished and been stored.
func TestTableStopsAtQuarantinedCell(t *testing.T) {
	cells, rows := table33Cells(Table33Options{Refs: 120_000, Seed: 3})
	cells[2].cfg.Faults = []FaultPlan{{Kind: FaultPageInIO, Every: 1}}
	st := openStore(t, t.TempDir())
	_, err := driver{st: st}.table(cells)
	if err == nil {
		t.Fatal("a table with a quarantined cell did not stop")
	}
	for i, c := range cells {
		key, _ := sweepRunKey(c.cfg, c.spec, 0)
		b, ok := st.Get(key)
		var r cellRun
		if !ok || json.Unmarshal(b, &r) != nil {
			t.Fatalf("cell %d is not in the store", i)
		}
		switch {
		case i == 2 && r.Failure == nil:
			t.Fatal("the armed cell was not quarantined")
		case i == 2 && !strings.Contains(err.Error(), r.Failure.Reason):
			t.Errorf("the table stopped with %q, not the cell's reason %q", err, r.Failure.Reason)
		case i != 2 && (r.Failure != nil || r.Result.Refs != 120_000):
			t.Errorf("sibling cell %d did not finish: %d refs, failure %v", i, r.Result.Refs, r.Failure)
		}
	}
	defer func() {
		if msg, _ := recover().(string); msg != err.Error() {
			t.Errorf("Table33's run of the same cells panicked with %q, want %q", msg, err)
		}
	}()
	alone(cells, rows)
}

// TestStoredRunWithoutCountersIsRerun: a run stored before the bus
// counters were kept (a bare sweep repetition) still serves the tables
// that read only its Result, but DirtySweep, which reads the counters, is
// never served it: its cell is rerun.
func TestStoredRunWithoutCountersIsRerun(t *testing.T) {
	cells, rows := dirtySweepCells(100_000, 2)
	want := alone(cells, rows)
	st := openStore(t, t.TempDir())
	for _, c := range cells {
		res, fail := RunHardened(c.cfg, c.spec, RunOptions{})
		b, err := json.Marshal(SweepRep{Seed: c.cfg.Seed, Result: res, Failure: fail})
		if err != nil {
			t.Fatal(err)
		}
		key, _ := sweepRunKey(c.cfg, c.spec, 0)
		if err := st.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := driver{st: st}.table(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(runs); !reflect.DeepEqual(got, want) || got[0].BusWrites == 0 {
		t.Fatalf("DirtySweep over runs stored without counters:\n%+v\nwant\n%+v", got, want)
	}
	for i := range cells {
		cells[i].bus = false
	}
	if runs, err = (driver{st: st}).table(cells); err != nil || runs[0].Bus != nil || runs[0].Result != want[0].Result {
		t.Fatalf("a table that reads no counters was not served the stored run (err %v)", err)
	}
}

func TestMemorySweepStoredRejectsUnhashableKnobs(t *testing.T) {
	dir := t.TempDir()
	opts := storeSweepOpts()
	opts.Configure = func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy) {}
	if _, err := MemorySweepStored(opts, dir); err == nil {
		t.Error("stored sweep with Configure succeeded")
	}
	opts = storeSweepOpts()
	opts.Deadline = 1
	if _, err := MemorySweepStored(opts, dir); err == nil {
		t.Error("stored sweep with Deadline succeeded")
	}
}

func TestTable41JournaledResume(t *testing.T) {
	base := Table41Options{Refs: 150_000, Reps: 2, Seed: 5, SizesMB: []int{5}, Parallel: 4}
	baseline := Table41(base)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := base
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := TableDocs("4.1", opts, true, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted table 4.1: err %v, want context.Canceled", err)
	}

	// The resumed table (what cmd/tables prints) is the uninterrupted one.
	docs, err := TableDocs("4.1", base, true, dir)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if want := []report.Doc{RenderTable41(baseline, true).Doc()}; !reflect.DeepEqual(docs, want) {
		t.Fatalf("resumed Table 4.1 differs from uninterrupted run:\n%+v\nvs\n%+v", docs, want)
	}

	// A Table 4.1 run is the memory sweep's run of the same cell: the sweep
	// over Table 4.1's grid is served entirely from the store, and every
	// other spec gives exactly the rows of a fresh sweep.
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
	st := openStore(t, dir)
	sw, err := memorySweep(grid(), st)
	if err != nil {
		t.Fatalf("memory sweep over Table 4.1's grid: %v", err)
	}
	if got := table41Rows(sw); !reflect.DeepEqual(got, baseline) {
		t.Fatalf("sweep served from the Table 4.1 store gives other rows:\n%+v\nvs\n%+v", got, baseline)
	}
	if s := st.Stats(); s.Puts != 0 {
		t.Fatalf("sweep over Table 4.1's grid recomputed %d runs", s.Puts)
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
		got, err := MemorySweepStored(o, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := MemorySweep(o); !reflect.DeepEqual(got, want) {
			t.Errorf("a sweep with another %s over the Table 4.1 store differs from a fresh one:\n%+v\nvs\n%+v", name, got, want)
		}
	}
}

// sampledGroups is how many (workload, rep) groups sampledSweepOpts runs.
const sampledGroups = 2

func TestMemorySweepSampledStoredMatchesUninterrupted(t *testing.T) {
	o, so := sampledSweepOpts(2)
	want, err := MemorySweepSampled(o, so)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	got, err := MemorySweepSampledStored(o, so, dir)
	if err != nil {
		t.Fatalf("MemorySweepSampledStored: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stored sampled sweep differs from a plain one:\n%+v\nvs\n%+v", got, want)
	}

	// A complete store serves every group and measures none.
	st := openStore(t, dir)
	got, err = memorySweepSampled(o, so, st)
	if err != nil {
		t.Fatalf("rerun over a complete store: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun over a complete store differs:\n%+v\nvs\n%+v", got, want)
	}
	if s := st.Stats(); s.Hits() != sampledGroups || s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("rerun over a complete store: %d hits, %d misses, %d puts; want %d, 0, 0", s.Hits(), s.Misses, s.Puts, sampledGroups)
	}
}

func TestMemorySweepSampledStoredResumeAfterInterrupt(t *testing.T) {
	o, so := sampledSweepOpts(1)
	want, err := MemorySweepSampled(o, so)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the first attempt once its first group is stored.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := o
	first.Context = ctx
	first.Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := MemorySweepSampledStored(first, so, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sampled sweep: err %v, want context.Canceled", err)
	}
	st := openStore(t, dir)
	stored := st.Len()
	if stored < 1 || stored >= sampledGroups {
		t.Fatalf("interrupted sampled sweep stored %d groups, want a strict partial of %d", stored, sampledGroups)
	}

	got, err := memorySweepSampled(o, so, st)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun differs from an uninterrupted sweep:\n%+v\nvs\n%+v", got, want)
	}
	if s := st.Stats(); s.Hits() != uint64(stored) || s.Puts != uint64(sampledGroups-stored) {
		t.Fatalf("rerun: %d hits and %d puts, want %d and %d", s.Hits(), s.Puts, stored, sampledGroups-stored)
	}
}

// TestMemorySweepSampledStoredOtherSpecMisses: a sampled sweep of another
// spec — seed, memory sizes or any sample option — shares the store but is
// never served the first sweep's groups; it returns exactly the rows of a
// fresh sweep of its own spec.
func TestMemorySweepSampledStoredOtherSpecMisses(t *testing.T) {
	dir := t.TempDir()
	o, so := sampledSweepOpts(2)
	if _, err := MemorySweepSampledStored(o, so, dir); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*MemorySweepOptions, *SampleOptions){
		"seed":         func(o *MemorySweepOptions, _ *SampleOptions) { o.Seed = 4 },
		"sizes":        func(o *MemorySweepOptions, _ *SampleOptions) { o.SizesMB = []int{6} },
		"interval_len": func(_ *MemorySweepOptions, s *SampleOptions) { s.IntervalLen = 25_000 },
		"k":            func(_ *MemorySweepOptions, s *SampleOptions) { s.K = 6 },
		"warmup":       func(_ *MemorySweepOptions, s *SampleOptions) { s.Warmup = 30_000 },
		"prefix":       func(_ *MemorySweepOptions, s *SampleOptions) { s.Prefix = -1 },
	} {
		o, so := sampledSweepOpts(2)
		edit(&o, &so)
		want, err := MemorySweepSampled(o, so)
		if err != nil {
			t.Fatal(err)
		}
		st := openStore(t, dir)
		got, err := memorySweepSampled(o, so, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("a sampled sweep with another %s over the store differs from a fresh one", name)
		}
		if s := st.Stats(); s.Hits() != 0 {
			t.Errorf("a sampled sweep with another %s was served %d stored groups", name, s.Hits())
		}
	}
}
