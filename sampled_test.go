package spur

// Tests for the sampled experiment drivers: byte-stability across runs and
// parallelism, the estimator-vs-full validation harness at a CI-affordable
// scale, the rendered artifacts, and the store-key separation that keeps
// sampled estimates from ever being served as exact results.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
)

func sampledSweepOpts(par int) (MemorySweepOptions, SampleOptions) {
	return MemorySweepOptions{
			SizesMB:   []int{6, 8},
			Workloads: []core.WorkloadName{core.SLC},
			Refs:      400_000,
			Seed:      3,
			Reps:      2,
			Parallel:  par,
		}, SampleOptions{
			IntervalLen: 20_000,
		}
}

// TestMemorySweepSampledDeterministic is the sampled engine's core
// guarantee: identical CSV bytes on repeated runs and at any parallelism.
func TestMemorySweepSampledDeterministic(t *testing.T) {
	o1, s1 := sampledSweepOpts(1)
	serial, err := MemorySweepSampled(o1, s1)
	if err != nil {
		t.Fatal(err)
	}
	o2, s2 := sampledSweepOpts(4)
	par, err := MemorySweepSampled(o2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SampledSweepCSV(par), SampledSweepCSV(serial); got != want {
		t.Errorf("parallel sampled CSV differs from serial:\n--- serial ---\n%s--- par=4 ---\n%s", want, got)
	}
	o3, s3 := sampledSweepOpts(1)
	again, err := MemorySweepSampled(o3, s3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SampledSweepCSV(again), SampledSweepCSV(serial); got != want {
		t.Errorf("repeated sampled sweep is not byte-stable")
	}
	// Every row carries all repetitions and a coherent design summary.
	for _, r := range serial {
		if len(r.Reps) != 2 {
			t.Fatalf("%s@%dMB/%s: %d reps, want 2", r.Workload, r.MemMB, r.Policy, len(r.Reps))
		}
		// At this toy scale warming costs more than the stream saves;
		// the design summary just has to be coherent (the real savings
		// assertion lives in TestValidateSamplingCI at 2M refs).
		if r.Estimate.TotalRefs != 400_000 || r.Estimate.SimulatedRefs <= 0 {
			t.Errorf("%s@%dMB/%s: design %d simulated of %d total",
				r.Workload, r.MemMB, r.Policy, r.Estimate.SimulatedRefs, r.Estimate.TotalRefs)
		}
	}
}

// TestMemorySweepSampledRejectsConfigure: the per-cell hook is not part of
// the hashable spec, so the sampled driver must refuse it rather than cache
// under a key that does not describe the computation.
func TestMemorySweepSampledRejectsConfigure(t *testing.T) {
	o, s := sampledSweepOpts(1)
	o.Configure = func(*Config, core.WorkloadName, int, RefPolicy) {}
	if _, err := MemorySweepSampled(o, s); err == nil {
		t.Fatal("sampled sweep accepted a Configure hook")
	}
	if _, err := MemorySweepSampledStored(o, s, t.TempDir()); err == nil {
		t.Fatal("stored sampled sweep accepted a Configure hook")
	}
}

// TestMemorySweepSampledSharedStoreDir: two sampled specs share one
// store. Each group is keyed by its own content address, so every run
// prints its fresh CSV, the store ends up holding both specs' groups, and
// rerunning the first spec is served entirely from the store.
func TestMemorySweepSampledSharedStoreDir(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []uint64{3, 4, 3} {
		o, so := sampledSweepOpts(2)
		o.Seed = seed
		want, err := MemorySweepSampled(o, so)
		if err != nil {
			t.Fatal(err)
		}
		st := openStore(t, dir)
		got, err := memorySweepSampled(o, so, st)
		if err != nil {
			t.Fatalf("seed %d into a shared store: %v", seed, err)
		}
		if SampledSweepCSV(got) != SampledSweepCSV(want) {
			t.Errorf("seed %d: stored CSV differs from a fresh run", seed)
		}
		if s := st.Stats(); i == 2 && (s.Hits() != 2 || s.Puts != 0) {
			t.Errorf("seed %d rerun over the shared store: %d hits and %d puts, want 2 and 0", seed, s.Hits(), s.Puts)
		}
	}
	if n := openStore(t, dir).Len(); n != 4 {
		t.Errorf("%d stored groups for two specs of two groups each, want 4", n)
	}
}

// TestMemorySweepSampledCancelled: a cancelled context stops the sampled
// sweep before any group starts, and the sweep reports the cancellation
// instead of rows.
func TestMemorySweepSampledCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o, s := sampledSweepOpts(2)
	o.Context = ctx
	o.Progress = func(done, total int) { t.Errorf("progress %d/%d after cancellation", done, total) }
	rows, err := MemorySweepSampled(o, s)
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("cancelled sampled sweep: %d rows, err %v; want no rows and context.Canceled", len(rows), err)
	}
}

// TestTable41SampledRenders drives the sampled Table 4.1 end to end and
// checks the rendered artifact's shape: the full grid, error-bar columns,
// and MISS-relative ratios anchored at 100%.
func TestTable41SampledRenders(t *testing.T) {
	rows, err := Table41Sampled(
		Table41Options{Refs: 400_000, Reps: 1, Seed: 3, SizesMB: []int{8}},
		SampleOptions{IntervalLen: 20_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * len(RefPolicies); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	doc := RenderTable41Sampled(rows).Doc()
	if len(doc.Rows) != len(rows) {
		t.Fatalf("rendered %d rows, want %d", len(doc.Rows), len(rows))
	}
	for _, r := range doc.Rows {
		if r[2] == RefMISS.String() && (r[5] != "(100%)" || r[8] != "(100%)") {
			t.Errorf("MISS row not anchored at 100%%: %v", r)
		}
	}
	if !strings.Contains(doc.Title, "sampled") {
		t.Errorf("sampled table title must say so: %q", doc.Title)
	}
}

// TestValidateSamplingCI runs the sampled-vs-full harness at a scale CI can
// afford. Every tracked metric must land inside its CI95 and the derived
// rates inside their relative-error bounds — the same gate the acceptance
// run applies at 10M references.
func TestValidateSamplingCI(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-full comparison simulates the full stream six times")
	}
	rep, err := ValidateSampling(ValidateOptions{Refs: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failures() {
		t.Errorf("%s %dMB %s %s: est %g vs full %g (rel err %.4f, ci95 %g, bound %g)",
			c.Workload, c.MemMB, c.Policy, c.Metric, c.Est, c.Full, c.RelErr, c.CI95, c.Bound)
	}
	if !rep.Pass {
		t.Error("validation report not marked passing")
	}
	// The sampled design must actually be a shortcut: the simulated span
	// (prefix + warmed representatives) stays well under the full stream.
	if rep.SimulatedRefs <= 0 || rep.SimulatedRefs > rep.Refs/2 {
		t.Errorf("sampled design simulates %d of %d refs", rep.SimulatedRefs, rep.Refs)
	}
}

// TestSampledSpecKeysDistinct: a sampled group must never hash to the key
// of an exact sweep run with the same option values — the store kinds keep
// the namespaces apart.
func TestSampledSpecKeysDistinct(t *testing.T) {
	mo := MemorySweepOptions{SizesMB: []int{8}, Refs: 400_000, Seed: 3}
	mo.fill()
	so := SampleOptions{IntervalLen: 20_000}
	so.fill(mo.Refs)
	cfg := DefaultConfig()
	cfg.MemoryBytes = core.MiB(8)
	groupKey, err := sampledGroupKey(SLC(), mo.Seed, mo.Refs, so, []sample.Variant{{Name: "8MB/MISS", Cfg: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.TotalRefs = mo.Refs
	cfg.Seed = mo.Seed
	runKey, err := sweepRunKey(cfg, SLC(), mo.AuditEvery)
	if err != nil {
		t.Fatal(err)
	}
	if groupKey == runKey {
		t.Fatal("sampled group collides with an exact sweep run's key")
	}
}
