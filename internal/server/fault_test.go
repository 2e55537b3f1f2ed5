package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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

	// Three straight inventory failures (default threshold) trip the
	// survivor's breaker for the dead peer.
	for i := 0; i < 3; i++ {
		survivor.srv.RepairFromPeers(context.Background())
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

// TestShedsHeavyOpsWhenDegraded pins the op-class load shedder: with a
// peer's breaker open and the waiting room over half full, a sweep that
// would compute is shed with 429 + Retry-After, while a cache hit for the
// very same key is still served.
func TestShedsHeavyOpsWhenDegraded(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	srv, err := New(Config{
		Self:        urls[0],
		Peers:       urls,
		Replication: 1,
		MaxRun:      1,
		MaxQueue:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Trip the peer's breaker: three consecutive recorded failures.
	br := srv.cluster.breakers[urls[1]]
	for i := 0; i < 3; i++ {
		if !br.Allow() {
			t.Fatal("breaker opened early")
		}
		br.Record(false)
	}
	if !srv.cluster.anyBreakerOpen() {
		t.Fatal("breaker did not open")
	}

	// Fill the slot and more than half the waiting room.
	release, err := srv.q.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	waitCtx, cancelWaiters := context.WithCancel(context.Background())
	defer cancelWaiters()
	for i := 0; i < 2; i++ {
		go func() {
			if rel, err := srv.q.acquire(waitCtx); err == nil {
				rel()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.q.waitingCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue waiters never parked")
		}
		time.Sleep(time.Millisecond)
	}

	req := testSweepReq(43)
	body, _, status := rawSweepVia(t, srv, req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("degraded sweep: status %d body %s, want 429", status, body)
	}

	// The same key served from cache bypasses the shedder entirely.
	key := sweepKey(t, req)
	if err := srv.store.Put(key, []byte("[]")); err != nil {
		t.Fatal(err)
	}
	body, hdr, status := rawSweepVia(t, srv, req)
	if status != http.StatusOK {
		t.Fatalf("cached sweep under degradation: status %d body %s, want 200", status, body)
	}
	if hdr.Get("X-Spur-Cached") != "true" {
		t.Fatalf("cached sweep not marked cached (headers %v)", hdr)
	}
}

// rawSweepVia posts a sweep straight at an in-process handler.
func rawSweepVia(t *testing.T, h http.Handler, req client.SweepRequest) ([]byte, http.Header, int) {
	t.Helper()
	payload := mustJSON(t, req)
	hr := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(payload))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	return rec.Body.Bytes(), rec.Result().Header, rec.Code
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
	if !survivor.srv.Store().Has(key) {
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
	for !victim.srv.Store().Has(key) || breaker() != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("revived replica has %.12s: %v; breaker %q (outbox %+v)",
				key, victim.srv.Store().Has(key), breaker(), survivor.srv.cluster.outbox.Stats())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
