package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// This file is the durable half of replication. A node that computes a
// result owes a copy to every other replica of the key; that debt must
// survive the node crashing between the store write and the pushes. The
// Outbox journals the intent (fsynced, before the computing handler
// returns), a background sender retries each (key, replica) delivery until
// the replica acknowledges, and deliveries are journaled as they land so a
// restarted node resumes exactly the pushes it still owes. The blob bytes
// themselves are not journaled twice — they already sit, crash-safe, in
// the local result store, and the send callback rereads them.

// outboxJournalKind is the journal.Header.Kind of a replication outbox.
const outboxJournalKind = "spurd-outbox"

// outboxRecord is one journal entry: a replication intent or a delivery.
type outboxRecord struct {
	// Op is "enq" (result stored locally, copies owed to Peers) or "sent"
	// (Peer acknowledged the blob).
	Op string `json:"op"`
	// Key is the blob's content address in the result store.
	Key string `json:"key"`
	// Peers are the replicas owed a copy (enq records only).
	Peers []string `json:"peers,omitempty"`
	// Peer is the replica that acknowledged (sent records only).
	Peer string `json:"peer,omitempty"`
}

// Outbox is a durable at-least-once replication queue. It is safe for
// concurrent use; the background sender is its only goroutine.
type Outbox struct {
	send func(peer, key string) error
	logf func(string, ...any)
	// now and newTimer are the sender's clock, injectable so backoff tests
	// step deterministically instead of sleeping. Set before the sender
	// starts, never after.
	now      func() time.Time
	newTimer func(time.Duration) *time.Timer

	mu         sync.Mutex
	w          *journal.Writer            // guarded by mu: nil for a memory-only outbox
	pending    map[string]map[string]bool // guarded by mu: key -> replicas still owed
	enqueuedAt map[string]time.Time       // guarded by mu: when each owed key was first seen

	enqueued  atomic.Uint64
	delivered atomic.Uint64
	failed    atomic.Uint64

	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// OpenOutbox opens (or creates) the replication outbox journaled at path
// and starts its background sender. send pushes one blob to one peer and
// returns nil only when the peer has acknowledged it. An empty path keeps
// the queue in memory only (undelivered pushes die with the process —
// tests and memory-only stores). A journal written by a different code
// version is set aside (path+".stale"): its keys address a store keyed by
// that version, not this one.
func OpenOutbox(path, version string, send func(peer, key string) error, logf func(string, ...any)) (*Outbox, error) {
	return openOutboxWith(path, version, send, logf, time.Now, time.NewTimer)
}

// openOutboxWith is OpenOutbox with an injected clock and retry timer, so
// the sustained-failure backoff schedule is testable without real sleeps.
func openOutboxWith(path, version string, send func(peer, key string) error, logf func(string, ...any), now func() time.Time, newTimer func(time.Duration) *time.Timer) (*Outbox, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	o := &Outbox{
		send:       send,
		logf:       logf,
		now:        now,
		newTimer:   newTimer,
		pending:    map[string]map[string]bool{},
		enqueuedAt: map[string]time.Time{},
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if path != "" {
		w, pending, err := openOutboxJournal(path, version, logf)
		if err != nil {
			return nil, err
		}
		o.w = w
		o.pending = pending
		// Replayed debts carry no timestamp in the journal; their age is
		// measured from this recovery.
		for k := range pending {
			o.enqueuedAt[k] = now()
		}
	}
	go o.sender()
	if len(o.pending) > 0 {
		o.notify()
	}
	return o, nil
}

// openOutboxJournal creates or replays the journal at path, returning the
// writer and the owed deliveries it replayed. It builds the pending map
// locally rather than writing Outbox fields: the caller merges the result
// in before the outbox is published to any other goroutine.
func openOutboxJournal(path, version string, logf func(string, ...any)) (*journal.Writer, map[string]map[string]bool, error) {
	pending := map[string]map[string]bool{}
	w, err := journal.Open(path, journal.Header{Kind: outboxJournalKind, Version: version}, logf, func(b []byte) error {
		var r outboxRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		switch r.Op {
		case "enq":
			set := pending[r.Key]
			if set == nil {
				set = map[string]bool{}
				pending[r.Key] = set
			}
			for _, p := range r.Peers {
				set[p] = true
			}
		case "sent":
			if set := pending[r.Key]; set != nil {
				delete(set, r.Peer)
				if len(set) == 0 {
					delete(pending, r.Key)
				}
			}
		default:
			return fmt.Errorf("unknown op %q", r.Op)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: outbox: %w", err)
	}
	return w, pending, nil
}

// Enqueue records that key's blob is owed to peers and wakes the sender.
// The intent is fsynced before Enqueue returns: once it does, the copies
// will land even if this process dies immediately after.
func (o *Outbox) Enqueue(key string, peers []string) error {
	if len(peers) == 0 {
		return nil
	}
	o.mu.Lock()
	if o.w != nil {
		b, err := json.Marshal(outboxRecord{Op: "enq", Key: key, Peers: peers})
		if err != nil {
			o.mu.Unlock()
			return err
		}
		if err := o.w.Append(b); err != nil {
			o.mu.Unlock()
			return err
		}
	}
	set := o.pending[key]
	if set == nil {
		set = map[string]bool{}
		o.pending[key] = set
	}
	if _, ok := o.enqueuedAt[key]; !ok {
		o.enqueuedAt[key] = o.now()
	}
	for _, p := range peers {
		set[p] = true
	}
	o.mu.Unlock()
	o.enqueued.Add(1)
	o.notify()
	return nil
}

// notify wakes the sender without blocking (a full wake channel means a
// wake-up is already queued).
func (o *Outbox) notify() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// sender is the background delivery loop: drain everything pending, then
// sleep until woken or, while deliveries keep failing (a replica is down),
// until a capped exponential retry timer fires.
func (o *Outbox) sender() {
	defer close(o.done)
	backoff := time.Duration(0)
	for {
		var timer <-chan time.Time
		var t *time.Timer
		if backoff > 0 {
			t = o.newTimer(backoff)
			timer = t.C
		}
		select {
		case <-o.stop:
			if t != nil {
				t.Stop()
			}
			return
		case <-o.wake:
			if t != nil {
				t.Stop()
			}
		case <-timer:
		}
		if o.drain() {
			backoff = 0
			continue
		}
		// Something is still owed and its replica is unreachable; retry
		// on a capped exponential schedule.
		if backoff == 0 {
			backoff = 250 * time.Millisecond
		} else if backoff < 10*time.Second {
			backoff *= 2
		}
	}
}

// drain attempts every pending delivery once, in sorted order (determinism
// of attempt order makes drills reproducible). It reports whether the
// queue is empty afterwards.
func (o *Outbox) drain() bool {
	type pair struct{ key, peer string }
	o.mu.Lock()
	var work []pair
	for k, set := range o.pending {
		for p := range set {
			work = append(work, pair{k, p})
		}
	}
	o.mu.Unlock()
	sort.Slice(work, func(i, j int) bool {
		if work[i].key != work[j].key {
			return work[i].key < work[j].key
		}
		return work[i].peer < work[j].peer
	})
	for _, w := range work {
		select {
		case <-o.stop:
			return false
		default:
		}
		if err := o.send(w.peer, w.key); err != nil {
			o.failed.Add(1)
			o.logf("cluster: replicating %.12s to %s: %v", w.key, w.peer, err)
			continue
		}
		o.settle(w.key, w.peer)
	}
	o.mu.Lock()
	empty := len(o.pending) == 0
	o.mu.Unlock()
	return empty
}

// settle journals and forgets one acknowledged delivery.
func (o *Outbox) settle(key, peer string) {
	o.mu.Lock()
	if o.w != nil {
		if b, err := json.Marshal(outboxRecord{Op: "sent", Key: key, Peer: peer}); err == nil {
			if jerr := o.w.Append(b); jerr != nil {
				// The copy is delivered; worst case a restart re-pushes it
				// and the replica's idempotent Put absorbs the duplicate.
				o.logf("cluster: journaling delivery of %.12s to %s: %v", key, peer, jerr)
			}
		}
	}
	if set := o.pending[key]; set != nil {
		delete(set, peer)
		if len(set) == 0 {
			delete(o.pending, key)
			delete(o.enqueuedAt, key)
		}
	}
	o.mu.Unlock()
	o.delivered.Add(1)
}

// Stats snapshots the outbox for /healthz.
func (o *Outbox) Stats() Stats {
	o.mu.Lock()
	pending := 0
	for _, set := range o.pending {
		pending += len(set)
	}
	var oldest time.Time
	for _, at := range o.enqueuedAt {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	o.mu.Unlock()
	var age float64
	if !oldest.IsZero() {
		age = o.now().Sub(oldest).Seconds()
	}
	return Stats{
		Enqueued:     o.enqueued.Load(),
		Delivered:    o.delivered.Load(),
		Failed:       o.failed.Load(),
		Pending:      pending,
		OldestAgeSec: age,
	}
}

// Flush blocks until the outbox is empty or the deadline passes, polling
// the pending set. It is a test and drain helper, not a delivery
// guarantee — an unreachable replica keeps the queue non-empty.
func (o *Outbox) Flush(deadline time.Time) bool {
	for {
		o.mu.Lock()
		empty := len(o.pending) == 0
		o.mu.Unlock()
		if empty {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		o.notify()
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the sender and closes the journal. Undelivered intents stay
// journaled for the next process. It is idempotent.
func (o *Outbox) Close() error {
	var err error
	o.closeOnce.Do(func() {
		close(o.stop)
		<-o.done
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.w != nil {
			err = o.w.Close()
		}
	})
	return err
}
