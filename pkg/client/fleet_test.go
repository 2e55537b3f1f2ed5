package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spur "repro"
	"repro/internal/expstore"
)

// fakePeer is one fleet member: it serves canned /v1/run responses that
// name the peer, so tests can tell which member actually answered.
type fakePeer struct {
	ts     *httptest.Server
	calls  atomic.Int64
	status atomic.Int64 // 0 = healthy; otherwise the HTTP status to return
}

func (p *fakePeer) handle(w http.ResponseWriter, r *http.Request) {
	p.calls.Add(1)
	if code := p.status.Load(); code != 0 {
		http.Error(w, `{"error":"injected"}`, int(code))
		return
	}
	json.NewEncoder(w).Encode(RunResponse{Key: p.ts.URL, Cached: true})
}

func startPeers(t *testing.T, n int) []*fakePeer {
	t.Helper()
	peers := make([]*fakePeer, n)
	for i := range peers {
		p := &fakePeer{}
		p.ts = httptest.NewServer(http.HandlerFunc(p.handle))
		t.Cleanup(p.ts.Close)
		peers[i] = p
	}
	return peers
}

func testFleet(t *testing.T, peers []*fakePeer) *Fleet {
	t.Helper()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.ts.URL
	}
	f, err := NewFleet(urls, FleetOptions{})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	f.Template.Backoff = time.Millisecond
	f.Template.MaxBackoff = 2 * time.Millisecond
	return f
}

// runOrder returns the peers, owner first, that the fleet would try for
// req — computed exactly the way Fleet.Run does.
func runOrder(t *testing.T, f *Fleet, req RunRequest) []string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	key, err := expstore.KeyOf(spur.Version, "run", req)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	return f.Replicas(string(key))
}

// fleetOp is one Fleet call on the failover path: order returns the peers
// it tries, owner first, and call returns the URL of the peer that answered
// (every fake peer's response carries its URL as the key).
type fleetOp struct {
	name  string
	order func(t *testing.T, f *Fleet) []string
	call  func(ctx context.Context, f *Fleet) (string, error)
}

// fleetOps returns Fleet.Run and Fleet.Tables over requests of refs
// references.
func fleetOps(refs int64) []fleetOp {
	req := RunRequest{Refs: refs}
	q := TablesQuery{Refs: refs}
	return []fleetOp{{
		name:  "Run",
		order: func(t *testing.T, f *Fleet) []string { return runOrder(t, f, req) },
		call: func(ctx context.Context, f *Fleet) (string, error) {
			r, err := f.Run(ctx, req)
			if err != nil {
				return "", err
			}
			return r.Key, nil
		},
	}, {
		name: "Tables",
		order: func(t *testing.T, f *Fleet) []string {
			t.Helper()
			q := q
			if err := q.Normalize(); err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			key, err := expstore.KeyOf(spur.Version, "tables/3.1", q)
			if err != nil {
				t.Fatalf("KeyOf: %v", err)
			}
			return f.Replicas(string(key))
		},
		call: func(ctx context.Context, f *Fleet) (string, error) {
			r, err := f.Tables(ctx, "3.1", q)
			if err != nil {
				return "", err
			}
			return r.Key, nil
		},
	}}
}

func peerByURL(t *testing.T, peers []*fakePeer, url string) *fakePeer {
	t.Helper()
	for _, p := range peers {
		if p.ts.URL == url {
			return p
		}
	}
	t.Fatalf("no fake peer at %s", url)
	return nil
}

// TestPeerAnswered pins the one rule Fleet failover and spurd's peer
// breakers share: a plain 4xx is a healthy authoritative answer, but 429 is
// the peer shedding load and must count as a failure so the breaker can open.
func TestPeerAnswered(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{http.StatusNotFound, true},
		{http.StatusBadRequest, true},
		{http.StatusTooManyRequests, false},
		{http.StatusInternalServerError, false},
		{http.StatusBadGateway, false},
		{http.StatusOK, false}, // never asked for 2xx; callers count a 2xx as healthy directly
	}
	for _, c := range cases {
		if got := Answered(c.code); got != c.want {
			t.Errorf("Answered(%d) = %v, want %v", c.code, got, c.want)
		}
		err := fmt.Errorf("peer: %w", &StatusError{Code: c.code})
		if got := authoritative(err); got != c.want {
			t.Errorf("authoritative(status %d) = %v, want %v", c.code, got, c.want)
		}
	}
	if authoritative(errors.New("connection refused")) {
		t.Error("a transport error counted as an answer")
	}
}

func TestFleetRoutesToOwner(t *testing.T) {
	peers := startPeers(t, 3)
	f := testFleet(t, peers)
	req := RunRequest{Refs: 1000}
	order := runOrder(t, f, req)

	resp, err := f.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resp.Key != order[0] {
		t.Errorf("served by %s, want owner %s", resp.Key, order[0])
	}
	for _, p := range peers {
		want := int64(0)
		if p.ts.URL == order[0] {
			want = 1
		}
		if got := p.calls.Load(); got != want {
			t.Errorf("peer %s saw %d calls, want %d", p.ts.URL, got, want)
		}
	}
}

func TestFleetOwnerDownFailsOverToReplica(t *testing.T) {
	for _, op := range fleetOps(2000) {
		t.Run(op.name, func(t *testing.T) {
			peers := startPeers(t, 3)
			f := testFleet(t, peers)
			order := op.order(t, f)
			if len(order) != 2 {
				t.Fatalf("replica set %v, want 2 peers", order)
			}

			peerByURL(t, peers, order[0]).ts.Close() // kill the owner

			served, err := op.call(context.Background(), f)
			if err != nil {
				t.Fatalf("%s with owner down: %v", op.name, err)
			}
			if served != order[1] {
				t.Errorf("served by %s, want replica %s", served, order[1])
			}
		})
	}
}

func TestFleetAllReplicasDownClearError(t *testing.T) {
	peers := startPeers(t, 3)
	f := testFleet(t, peers)
	req := RunRequest{Refs: 3000}
	order := runOrder(t, f, req)
	for _, url := range order {
		peerByURL(t, peers, url).ts.Close()
	}

	_, err := f.Run(context.Background(), req)
	if err == nil {
		t.Fatal("Run with every replica down succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "all 2 replicas") {
		t.Errorf("error %q does not say how many replicas were tried", msg)
	}
	for _, url := range order {
		if !strings.Contains(msg, url) {
			t.Errorf("error %q does not name failed replica %s", msg, url)
		}
	}
	// The third peer is not in the replica set and must not be dragged in:
	// it would answer, but routing is deterministic, not scattershot.
	for _, p := range peers {
		if p.ts.URL != order[0] && p.ts.URL != order[1] && p.calls.Load() != 0 {
			t.Errorf("non-replica %s saw %d calls", p.ts.URL, p.calls.Load())
		}
	}
}

func TestFleetAuthoritative4xxDoesNotFailOver(t *testing.T) {
	peers := startPeers(t, 3)
	f := testFleet(t, peers)
	req := RunRequest{Refs: 4000}
	order := runOrder(t, f, req)
	peerByURL(t, peers, order[0]).status.Store(http.StatusBadRequest)

	_, err := f.Run(context.Background(), req)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want the owner's 400 verbatim", err)
	}
	if got := peerByURL(t, peers, order[1]).calls.Load(); got != 0 {
		t.Errorf("replica saw %d calls after an authoritative 4xx", got)
	}
}

func TestFleet5xxFailsOver(t *testing.T) {
	peers := startPeers(t, 3)
	f := testFleet(t, peers)
	f.Template.Retries = -1 // no per-peer retries: isolate the failover path
	req := RunRequest{Refs: 5000}
	order := runOrder(t, f, req)
	peerByURL(t, peers, order[0]).status.Store(http.StatusInternalServerError)

	resp, err := f.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run with owner 500ing: %v", err)
	}
	if resp.Key != order[1] {
		t.Errorf("served by %s, want replica %s", resp.Key, order[1])
	}
}

func TestFleetCanceledContextStopsFailover(t *testing.T) {
	peers := startPeers(t, 3)
	f := testFleet(t, peers)
	req := RunRequest{Refs: 6000}
	order := runOrder(t, f, req)
	for _, url := range order {
		peerByURL(t, peers, url).ts.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := f.Run(ctx, req)
	if err == nil {
		t.Fatal("Run with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	// At most the first replica may have been touched before the loop saw
	// the dead context.
	if got := peerByURL(t, peers, order[1]).calls.Load(); got != 0 {
		t.Errorf("second replica saw %d calls under a canceled context", got)
	}
}

func TestNewFleetRejectsEmptyPeerList(t *testing.T) {
	if _, err := NewFleet(nil, FleetOptions{}); err == nil {
		t.Fatal("NewFleet(nil) succeeded")
	}
}
