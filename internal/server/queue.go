package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expstore"
	"repro/pkg/client"
)

// busyError is the admission controller's load-shedding signal; handlers
// map it to 429 with a Retry-After header.
type busyError struct{ after time.Duration }

func (e busyError) Error() string {
	return fmt.Sprintf("server at capacity, retry after %s", e.after)
}

// queue is the daemon's bounded job queue: MaxRun jobs hold worker slots,
// up to MaxQueue more wait for one, and everything beyond that is shed
// immediately with a retry hint instead of being allowed to pile up.
type queue struct {
	slots    chan struct{}
	maxQueue int

	mu       sync.Mutex
	waiting  int // guarded by mu
	running  atomic.Int64
	rejected atomic.Uint64
}

func newQueue(maxRun, maxQueue int) *queue {
	return &queue{slots: make(chan struct{}, maxRun), maxQueue: maxQueue}
}

// acquire claims a worker slot, waiting in the bounded queue if all slots
// are busy. It returns a release func, or a busyError when the queue is
// full (admission control), or the context's error if the caller gives up
// while waiting.
func (q *queue) acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot means no queueing and no shedding,
	// regardless of how small the waiting room is.
	select {
	case q.slots <- struct{}{}:
		q.running.Add(1)
		return func() {
			q.running.Add(-1)
			<-q.slots
		}, nil
	default:
	}
	q.mu.Lock()
	if q.waiting >= q.maxQueue {
		waiting := q.waiting
		q.mu.Unlock()
		q.rejected.Add(1)
		// Experiments run for seconds; hint proportionally to the
		// backlog, capped so clients never stall for minutes.
		after := time.Duration(1+waiting) * time.Second
		if after > 30*time.Second {
			after = 30 * time.Second
		}
		return nil, busyError{after: after}
	}
	q.waiting++
	q.mu.Unlock()
	defer func() {
		q.mu.Lock()
		q.waiting--
		q.mu.Unlock()
	}()
	select {
	case q.slots <- struct{}{}:
		q.running.Add(1)
		return func() {
			q.running.Add(-1)
			<-q.slots
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stats snapshots the queue for /healthz.
func (q *queue) stats(deduped uint64) client.QueueStats {
	q.mu.Lock()
	waiting := q.waiting
	q.mu.Unlock()
	return client.QueueStats{
		Running:  int(q.running.Load()),
		Waiting:  waiting,
		MaxRun:   cap(q.slots),
		MaxQueue: q.maxQueue,
		Rejected: q.rejected.Load(),
		Deduped:  deduped,
	}
}

// flight deduplicates identical in-flight computations: the first request
// for a key becomes the leader and computes; followers block on the
// leader's result instead of queueing duplicate simulator work.
type flight struct {
	mu      sync.Mutex
	calls   map[expstore.Key]*call // guarded by mu
	deduped atomic.Uint64
}

type call struct {
	done chan struct{}
	data []byte
	err  error
}

func newFlight() *flight { return &flight{calls: make(map[expstore.Key]*call)} }

// do runs fn once per key across concurrent callers. The leader (leader ==
// true) executes fn; followers wait for its outcome or their own context,
// whichever ends first.
func (f *flight) do(ctx context.Context, k expstore.Key, fn func() ([]byte, error)) (data []byte, leader bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		f.deduped.Add(1)
		select {
		case <-c.done:
			return c.data, false, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	c.data, c.err = fn()
	f.mu.Lock()
	delete(f.calls, k)
	f.mu.Unlock()
	close(c.done)
	return c.data, true, c.err
}
