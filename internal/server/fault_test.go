package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/pkg/client"
)

// TestHealthzReportsBreakersAndOutboxAge drills the degraded-fleet
// observability surface: with one peer dead, /healthz on the survivor
// must show the undelivered outbox backlog, its growing age, and — once
// the survivor's outgoing breaker trips — that peer marked "open".
func TestHealthzReportsBreakersAndOutboxAge(t *testing.T) {
	tc := startCluster(t, 2, 2)
	survivor, victim := tc.nodes[0], tc.nodes[1]
	victim.kill()

	// A compute on the survivor owes its result to the dead replica.
	req := testSweepReq(41)
	if _, _, status := rawSweep(t, survivor.url, req); status != http.StatusOK {
		t.Fatalf("sweep on survivor: status %d", status)
	}
	time.Sleep(50 * time.Millisecond) // let the owed intent age measurably

	c := client.New(survivor.url)
	c.Retries = -1
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("clustered /healthz has no cluster section")
	}
	if h.Cluster.Outbox.Pending < 1 {
		t.Fatalf("outbox pending = %d, want >= 1 (victim is dead)", h.Cluster.Outbox.Pending)
	}
	if h.Cluster.Outbox.OldestAgeSec <= 0 {
		t.Fatalf("oldest pending age = %v, want > 0", h.Cluster.Outbox.OldestAgeSec)
	}
	if got := h.Cluster.Breakers[victim.url]; got == "" {
		t.Fatalf("breakers %v missing entry for %s", h.Cluster.Breakers, victim.url)
	}

	// Three store misses on the survivor each ask the dead replica for the
	// blob first: three straight failures (the threshold) trip the
	// survivor's breaker for it.
	for seed := uint64(1); seed <= 3; seed++ {
		postRun(t, survivor.url, client.RunRequest{Refs: 10_000, Seed: seed})
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Cluster.Breakers[victim.url]; got != "open" {
		t.Fatalf("breaker for dead peer = %q, want open (map %v)", got, h.Cluster.Breakers)
	}
}

// TestNetFaultMiddlewareDropsSeededRequests wires a NetInjector into a
// single node and checks the listener-side drop rule fires on exactly the
// scheduled request — and that the same seed gives the same schedule.
func TestNetFaultMiddlewareDropsSeededRequests(t *testing.T) {
	inj := faultinject.NewNet(faultinject.NetRule{
		Fault: faultinject.NetDrop, Op: "healthz", Every: 2,
	})
	srv, err := New(Config{NetFaults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var outcomes []bool
	for i := 0; i < 6; i++ {
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := drillClient.Do(req)
		if err != nil {
			outcomes = append(outcomes, false)
			continue
		}
		resp.Body.Close()
		outcomes = append(outcomes, resp.StatusCode == http.StatusOK)
	}
	want := []bool{true, false, true, false, true, false} // every 2nd call dropped
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("healthz outcomes = %v, want %v (drop cadence every=2)", outcomes, want)
		}
	}
	lg := inj.NetLog()
	if len(lg) != 3 {
		t.Fatalf("injector logged %d faults, want 3", len(lg))
	}
	for _, r := range lg {
		if r.Op != "healthz" {
			t.Fatalf("fault fired on op %q, want healthz", r.Op)
		}
	}
}

// TestBreakerBoundsDegradedMisses pins the measured value of the server's
// peer breakers. One replica is black-holed: its listener accepts and never
// answers. Every store miss on the survivor for a key the two share asks
// that replica for the blob first, and every compute owes it a push. Only
// the calls before the breaker opens (breakerThreshold consecutive
// failures) may wait out the peer timeout; the misses after it skip the
// dead replica and compute at once.
func TestBreakerBoundsDegradedMisses(t *testing.T) {
	const (
		peerTimeout = 300 * time.Millisecond
		misses      = 20
		maxWaits    = 3 // the breaker's threshold
	)
	tc := startCluster(t, 3, 2)
	survivor, victim := tc.nodes[0], tc.nodes[1]
	victim.kill()
	hole, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accepted, never answered
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		hole.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	survivor.kill()
	survivor.cfg.PeerTimeout = peerTimeout
	survivor.start(nil)

	var lat []time.Duration
	for seed := uint64(1); len(lat) < misses; seed++ {
		req := client.RunRequest{Refs: 10_000, Seed: seed}
		_, key := runKey(t, req)
		replicas, _ := tc.placement(key)
		if !slices.Contains(replicas, survivor.url) || !slices.Contains(replicas, victim.url) {
			continue
		}
		t0 := time.Now()
		postRun(t, survivor.url, req)
		lat = append(lat, time.Since(t0))
	}
	waits := 0
	for _, d := range lat {
		if d >= peerTimeout {
			waits++
		}
	}
	slices.Sort(lat)
	t.Logf("%d of %d misses waited a %s peer timeout; median %s", waits, misses, peerTimeout, lat[misses/2])
	if waits > maxWaits {
		t.Errorf("%d of %d store misses waited out the black-holed replica, want at most %d", waits, misses, maxWaits)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOutboxBreakerRecovers checks the full heal cycle end to end: a dead
// replica trips the survivor's breaker while the outbox holds the debt, and
// once the replica is back a half-open probe closes the breaker and the
// blob is delivered.
func TestOutboxBreakerRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second recovery drill")
	}
	tc := startCluster(t, 2, 2)
	survivor, victim := tc.nodes[0], tc.nodes[1]
	victim.kill()

	req := testSweepReq(47)
	if _, _, status := rawSweep(t, survivor.url, req); status != http.StatusOK {
		t.Fatalf("sweep on survivor: status %d", status)
	}
	key := sweepKey(t, req)
	if !holds(survivor.srv.Store(), key) {
		t.Fatal("survivor did not store its compute")
	}

	// Keep the victim down until the outbox's failed pushes (on capped
	// backoff: 0, 0.25, 0.75 s, ...) have opened the survivor's breaker.
	breaker := func() string { return survivor.srv.cluster.breakerStates()[victim.url] }
	deadline := time.Now().Add(10 * time.Second)
	for breaker() != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker on the dead replica = %q, never opened (outbox %+v)",
				breaker(), survivor.srv.cluster.outbox.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	victim.start(nil)
	// Only a half-open probe, admitted after the breaker's 5 s cooldown,
	// can reach the revived replica and close the breaker again; within the
	// deadline the replica must hold the blob and the breaker read closed.
	deadline = time.Now().Add(25 * time.Second)
	for !holds(victim.srv.Store(), key) || breaker() != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("revived replica has %.12s: %v; breaker %q (outbox %+v)",
				key, holds(victim.srv.Store(), key), breaker(), survivor.srv.cluster.outbox.Stats())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
