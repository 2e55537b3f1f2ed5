package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// fakeClock is a hand-stepped clock for deterministic breaker tests.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	b := newBreaker(3, time.Second, clk.now)

	if b.State() != BreakerClosed {
		t.Fatal("new breaker should be closed")
	}
	// Two failures: still closed. Third: open.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must allow")
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatal("below threshold should stay closed")
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("threshold'th failure should open")
	}
	if b.Allow() {
		t.Fatal("open breaker within cooldown must reject")
	}

	// Cooldown elapses: one half-open probe, and only one.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker must admit a probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}
	// Probe fails: straight back to open, new cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe should re-open")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown should admit another probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("successful probe should close")
	}
	// A success also clears the failure streak: two fresh failures do not
	// re-open.
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("failure streak should have been reset by the success")
	}
}

func TestNilBreakerIsTransparent(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must allow")
	}
	b.Record(false) // must not panic
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker reads closed")
	}
}

// TestFleetBreakerSkipsDeadPeer drives the owner's breaker open and checks
// that later requests go straight to the replica without touching the
// owner, then that a cooldown probe finds the healed owner and closes the
// breaker again.
func TestFleetBreakerSkipsDeadPeer(t *testing.T) {
	peers := startPeers(t, 3)
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.ts.URL
	}
	f, err := NewFleet(urls, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	for p := range f.breakers {
		f.breakers[p] = newBreaker(2, time.Minute, clk.now)
	}
	f.Template.Backoff = time.Millisecond
	f.Template.MaxBackoff = 2 * time.Millisecond
	f.Template.Retries = -1

	req := RunRequest{Refs: 1000}
	order := runOrder(t, f, req)
	owner := peerByURL(t, peers, order[0])
	owner.status.Store(http.StatusInternalServerError)

	// Two failing requests trip the owner's breaker (threshold 2).
	for i := 0; i < 2; i++ {
		if _, err := f.Run(context.Background(), req); err != nil {
			t.Fatalf("run %d should have failed over: %v", i, err)
		}
	}
	if got := f.BreakerStates()[order[0]]; got != "open" {
		t.Fatalf("owner breaker = %s, want open", got)
	}
	owner.calls.Store(0)
	if _, err := f.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if owner.calls.Load() != 0 {
		t.Fatal("open breaker still sent traffic to the dead owner")
	}

	// Heal the owner; after the cooldown one probe closes the breaker.
	owner.status.Store(0)
	clk.advance(time.Minute)
	resp, err := f.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Key != order[0] {
		t.Fatalf("post-cooldown probe served by %s, want healed owner %s", resp.Key, order[0])
	}
	if got := f.BreakerStates()[order[0]]; got != "closed" {
		t.Fatalf("owner breaker after healed probe = %s, want closed", got)
	}
}

// TestFleetRetryBudget pins the amplification bound: with every peer
// down, a logical request makes at most RetryBudget HTTP attempts no
// matter how deep the per-peer retry ladder is.
func TestFleetRetryBudget(t *testing.T) {
	peers := startPeers(t, 3)
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.ts.URL
		p.status.Store(http.StatusInternalServerError)
	}
	f, err := NewFleet(urls, FleetOptions{Replication: 3, RetryBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	f.Template.Backoff = time.Millisecond
	f.Template.MaxBackoff = time.Millisecond
	f.Template.Retries = 10 // would be 33 attempts without the budget

	_, rerr := f.Run(context.Background(), RunRequest{Refs: 1000})
	if rerr == nil {
		t.Fatal("all peers down: run must fail")
	}
	if !strings.Contains(rerr.Error(), "budget") {
		t.Fatalf("error should name the spent budget: %v", rerr)
	}
	total := int64(0)
	for _, p := range peers {
		total += p.calls.Load()
	}
	if total != 4 {
		t.Fatalf("fleet made %d HTTP attempts, want exactly the budget of 4", total)
	}
}

// TestFleetAttemptTimeoutBoundsBlackhole proves a black-holed owner cannot
// eat the caller's whole deadline: the attempt times out and the replica
// answers well inside the request budget.
func TestFleetAttemptTimeoutBoundsBlackhole(t *testing.T) {
	for _, op := range fleetOps(1000) {
		t.Run(op.name, func(t *testing.T) {
			peers := startPeers(t, 3)
			urls := make([]string, len(peers))
			for i, p := range peers {
				urls[i] = p.ts.URL
			}
			f, err := NewFleet(urls, FleetOptions{AttemptTimeout: 80 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			f.Template.Retries = -1
			order := op.order(t, f)

			// Black-hole the owner via a client-side net fault rule.
			inj := faultinject.NewNet(faultinject.NetRule{
				Fault: faultinject.NetBlackhole,
				Peer:  strings.TrimPrefix(order[0], "http://"),
				Every: 1,
			})
			f.Template.HTTPClient = &http.Client{Transport: inj.Transport(nil)}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			served, err := op.call(ctx, f)
			if err != nil {
				t.Fatalf("%s should fail over past the black hole: %v", op.name, err)
			}
			if served != order[1] {
				t.Fatalf("served by %s, want first replica %s", served, order[1])
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("failover past black hole took %v", d)
			}
		})
	}
}

// TestDecodeFailureRetries pins the client-level defense against mangled
// bodies: a corrupted JSON response is retried like a transport error, and
// the second, clean attempt succeeds.
func TestDecodeFailureRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			_, _ = io.WriteString(w, `{"key":"k","cached":tru`) // truncated
			return
		}
		_ = json.NewEncoder(w).Encode(RunResponse{Key: "k", Cached: true})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Backoff = time.Millisecond
	c.MaxBackoff = time.Millisecond
	resp, err := c.Run(context.Background(), RunRequest{Refs: 1000})
	if err != nil {
		t.Fatalf("mangled first body should have been retried: %v", err)
	}
	if resp.Key != "k" || calls.Load() != 2 {
		t.Fatalf("resp=%+v calls=%d", resp, calls.Load())
	}
}
