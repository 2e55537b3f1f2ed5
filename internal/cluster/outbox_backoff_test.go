package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestOutboxBackoffSchedule pins the sender's retry schedule under
// sustained delivery failure with an injected timer: delays double from
// 250 ms, and a successful drain resets the ladder. No real sleeping — the
// fake timers fire immediately and the test reads the requested durations.
func TestOutboxBackoffSchedule(t *testing.T) {
	sink := newFakeSink()
	sink.setDown("http://n1", true)

	durations := make(chan time.Duration, 1024)
	newTimer := func(d time.Duration) *time.Timer {
		// With timers firing at once, a sender retrying a down peer fills
		// the buffer while this goroutine waits for a CPU; blocking here
		// would stall it, so Flush times out and the deferred Close hangs.
		// The test reads only the first durations of each ladder.
		select {
		case durations <- d:
		default:
		}
		return time.NewTimer(0) // fire immediately: the schedule, not the wait, is under test
	}
	o, err := openOutboxWith("", "v", sink.send, t.Logf, time.Now, newTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := o.Enqueue("k1", []string{"http://n1"}); err != nil {
		t.Fatal(err)
	}

	want := []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		4 * time.Second,
		8 * time.Second,
		16 * time.Second, // ladder top: 8 s is still under the 10 s cap check
		16 * time.Second, // and then it stays put
	}
	for i, w := range want {
		select {
		case got := <-durations:
			if got != w {
				t.Fatalf("backoff %d = %v, want %v", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for backoff %d", i)
		}
	}

	// Heal the peer; the next (immediately-firing) retry drains the queue.
	sink.setDown("http://n1", false)
	if !o.Flush(time.Now().Add(5 * time.Second)) {
		t.Fatal("healed outbox did not drain")
	}
	for len(durations) > 0 {
		<-durations
	}

	// A fresh failure starts the ladder over at 250 ms, proving the reset.
	sink.setDown("http://n1", true)
	if err := o.Enqueue("k2", []string{"http://n1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-durations:
		if got != 250*time.Millisecond {
			t.Fatalf("post-recovery backoff = %v, want 250ms", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for post-recovery backoff")
	}
	sink.setDown("http://n1", false)
	if !o.Flush(time.Now().Add(5 * time.Second)) {
		t.Fatal("outbox did not drain at test end")
	}
}

// TestOutboxStatsOldestAge drives the oldest-pending-age gauge with an
// injected clock: it tracks the first still-owed enqueue, not the latest,
// and drops to zero once the queue drains.
func TestOutboxStatsOldestAge(t *testing.T) {
	sink := newFakeSink()
	sink.setDown("http://n1", true)

	var mu sync.Mutex
	cur := time.Unix(1000, 0)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	advance := func(d time.Duration) {
		mu.Lock()
		cur = cur.Add(d)
		mu.Unlock()
	}

	o, err := openOutboxWith("", "v", sink.send, t.Logf, now, time.NewTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Error(err)
		}
	}()

	if got := o.Stats().OldestAgeSec; got != 0 {
		t.Fatalf("empty outbox age = %v, want 0", got)
	}
	if err := o.Enqueue("k1", []string{"http://n1"}); err != nil {
		t.Fatal(err)
	}
	advance(30 * time.Second)
	if err := o.Enqueue("k2", []string{"http://n1"}); err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.Pending != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending)
	}
	if s.OldestAgeSec != 30 {
		t.Fatalf("oldest age = %v, want 30 (k1's, not k2's)", s.OldestAgeSec)
	}

	sink.setDown("http://n1", false)
	if !o.Flush(time.Now().Add(5 * time.Second)) {
		t.Fatal("outbox did not drain")
	}
	if got := o.Stats().OldestAgeSec; got != 0 {
		t.Fatalf("drained outbox age = %v, want 0", got)
	}
}
