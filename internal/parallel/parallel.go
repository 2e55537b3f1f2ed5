// Package parallel is the experiment engine's concurrency substrate: a
// bounded worker pool with deterministic result ordering, per-cell seed
// derivation, context cancellation, and serialized progress reporting.
//
// The engine's contract is that parallelism never changes results. Each job
// owns a distinct result slot (indexed by job number), jobs share no mutable
// state, and every cell's workload RNG stream is derived from the experiment
// seed and the cell's coordinates alone — so a sweep at Workers=N is
// byte-identical to the serial sweep, only faster.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures one bounded parallel run.
type Options struct {
	// Workers bounds how many jobs run at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Context, when non-nil, cancels the run early: jobs not yet started
	// are skipped and ForEach/Map return the context's error. Jobs already
	// running are never interrupted mid-flight, so completed slots stay
	// deterministic.
	Context context.Context
	// Progress, when set, is called after each job finishes with how many
	// jobs have completed and the total. Calls are serialized; done is
	// strictly increasing from 1 to total.
	Progress func(done, total int)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n), at most Workers at a time.
// Jobs are claimed in index order, so a caller that wants the paper's
// randomized experiment design shuffles its job list before submitting and
// indexes results by each job's own coordinates. A panic in any fn is
// re-raised in the caller's goroutine after the surviving workers drain.
func ForEach(n int, opts Options, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	ctx := opts.Context
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex // serializes Progress
		done  int        // guarded by mu
		panMu sync.Mutex
		pan   any
	)
	next.Store(-1)
	for g := opts.workers(n); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panMu.Lock()
					if pan == nil {
						pan = r
					}
					panMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					return
				}
				fn(i)
				if opts.Progress != nil {
					// Counting under the lock keeps done increasing across
					// workers that finish at the same time.
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// Map runs fn over [0, n) on the bounded pool and returns the results in
// index order — deterministic regardless of which worker computed what.
func Map[T any](n int, opts Options, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, opts, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}

// DeriveSeed mixes a base experiment seed with coordinate labels (cell
// index, repetition, ...) through splitmix64 finalizers, giving every
// (cell, rep) its own well-separated workload RNG stream: two runs share a
// stream only if base and every label match. The result is never zero,
// since zero means "unset" to the option fillers upstream.
func DeriveSeed(base uint64, labels ...uint64) uint64 {
	x := mix(base + 0x9e3779b97f4a7c15)
	for _, l := range labels {
		x = mix(x + 0x9e3779b97f4a7c15*(l+1))
	}
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// mix is the splitmix64 output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
