package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := Map(50, Options{Workers: workers}, func(i int) int { return i * i })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, Options{}, func(int) { t.Error("ran a job") }); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	go func() {
		// Release jobs only once a few have piled up at the gate.
		for i := 0; i < workers; i++ {
			<-started
		}
		close(gate)
	}()
	err := ForEach(24, Options{Workers: workers}, func(i int) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeded %d workers", p, workers)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	const n = 40
	var dones []int
	err := ForEach(n, Options{Workers: 4, Progress: func(done, total int) {
		if total != n {
			t.Errorf("total = %d", total)
		}
		dones = append(dones, done) // safe: Progress calls are serialized
	}}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != n {
		t.Fatalf("%d progress calls, want %d", len(dones), n)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress out of order: dones[%d] = %d", i, d)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(1000, Options{Workers: 2, Context: ctx}, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r := ran.Load(); r >= 1000 {
		t.Errorf("cancellation did not stop the run (ran %d)", r)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	_ = ForEach(10, Options{Workers: 2}, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Error("ForEach returned instead of panicking")
}

func TestDeriveSeedSeparation(t *testing.T) {
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for cell := uint64(0); cell < 64; cell++ {
			for rep := uint64(0); rep < 8; rep++ {
				s := DeriveSeed(base, cell, rep)
				if s == 0 {
					t.Fatalf("DeriveSeed(%d,%d,%d) = 0", base, cell, rep)
				}
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", base, cell, rep)
				}
				seen[s] = true
			}
		}
	}
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed insensitive to label order")
	}
	if DeriveSeed(1) == DeriveSeed(1, 0) {
		t.Error("DeriveSeed ignores a zero label")
	}
}
