package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/expstore"
	"repro/pkg/client"
)

// This file makes a spurd node fleet-aware. Placement comes from
// internal/cluster's consistent-hash ring: every result key has an owner
// and M−1 replicas, and client.Fleet sends each request to the key's owner.
// A node serves whatever reaches it the same way: from its store, else from
// one of the key's replicas (re-verifying the sealed envelope, so the fetch
// also repairs a miss, a quarantined corruption or a disk lost to a crash),
// else by computing it, after which the durable outbox pushes the result to
// every replica but itself. That request path is the only repair: a lost
// blob comes back when it is next asked for, and one never asked for again
// costs nothing.

// maxBlobBytes bounds a peer response body (matches the journal's frame
// bound; the biggest sweep payloads are far below it).
const maxBlobBytes = 64 << 20

// clusterNode is the server's view of the fleet.
type clusterNode struct {
	self   string
	ring   *cluster.Ring
	rep    int
	outbox *cluster.Outbox
	hc     *http.Client
	// timeout bounds every peer call on top of its caller's context.
	timeout time.Duration
	// breakers holds one outgoing circuit breaker per other peer. The map
	// is static after newClusterNode; each Breaker locks itself. They bound
	// what a dead replica costs: once one opens, store misses skip that
	// replica instead of each waiting out the peer timeout. Health probes
	// bypass them — an operator must see a down peer as down, not as
	// breaker-skipped.
	breakers map[string]*client.Breaker
}

// newClusterNode validates the cluster Config fields and assembles the
// node (outbox not yet attached; New wires it once the store exists).
func newClusterNode(cfg Config) (*clusterNode, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("server: cluster mode needs Self (this node's advertised URL)")
	}
	ring, err := cluster.NewRing(cfg.Peers)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("server: Self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	hc := &http.Client{}
	if cfg.NetFaults != nil {
		hc.Transport = cfg.NetFaults.Transport(nil)
	}
	c := &clusterNode{
		self:     cfg.Self,
		ring:     ring,
		rep:      cfg.Replication,
		hc:       hc,
		timeout:  cfg.PeerTimeout,
		breakers: make(map[string]*client.Breaker),
	}
	for _, p := range ring.Peers() {
		if p != cfg.Self {
			c.breakers[p] = client.NewBreaker()
		}
	}
	return c, nil
}

// breakerStates reports every peer's outgoing-breaker position, sorted by
// the map's peer URLs, for /healthz.
func (c *clusterNode) breakerStates() map[string]string {
	out := make(map[string]string, len(c.breakers))
	for p, b := range c.breakers {
		out[p] = b.State().String()
	}
	return out
}

// replicas returns key's replica set, owner first.
func (c *clusterNode) replicas(key expstore.Key) []string {
	return c.ring.Replicas(string(key), c.rep)
}

// --- replication -------------------------------------------------------------

// replicate queues key's blob for delivery to every other replica. Called
// after a successful store Put; the outbox journal makes the debt durable.
func (s *Server) replicate(key expstore.Key) {
	c := s.cluster
	if c == nil || c.outbox == nil {
		return
	}
	var targets []string
	for _, p := range c.replicas(key) {
		if p != c.self {
			targets = append(targets, p)
		}
	}
	if err := c.outbox.Enqueue(string(key), targets); err != nil {
		s.cfg.Logf("spurd: enqueueing replication of %.12s: %v", key, err)
	}
}

// sendBlob is the outbox's delivery callback: push one sealed blob to one
// replica. A blob that has vanished locally settles the intent (nothing
// left to push; the replica fetches or recomputes the blob on its first
// request for it). A peer behind an open breaker keeps the debt, which the
// outbox retries on its backoff schedule.
func (s *Server) sendBlob(peer, key string) error {
	sealed, ok := s.store.GetSealed(expstore.Key(key))
	if !ok {
		s.cfg.Logf("spurd: replication of %.12s to %s dropped: blob no longer held locally", key, peer)
		return nil
	}
	return s.cluster.call(context.Background(), http.MethodPut, peer, "/v1/cluster/blob/"+key, sealed, nil)
}

// errPeerBreakerOpen marks a peer call skipped by its open breaker.
var errPeerBreakerOpen = errors.New("circuit breaker open")

// call is roundTrip behind peer's breaker: it asks the breaker first and
// records whether the outcome showed a healthy peer.
func (c *clusterNode) call(ctx context.Context, method, peer, path string, body []byte, read func(io.Reader) error) error {
	br := c.breakers[peer]
	if !br.Allow() {
		return fmt.Errorf("peer %s: %w", peer, errPeerBreakerOpen)
	}
	healthy, err := c.roundTrip(ctx, method, peer+path, body, read)
	br.Record(healthy)
	return err
}

// roundTrip makes every peer call: one request, bounded by ctx and the
// node's peer timeout, whose 2xx body goes to read (when non-nil). It
// reports whether the outcome shows a healthy peer: a failed request build,
// transport, body read or decode does not, a non-2xx status by
// client.Answered, and anything else does.
func (c *clusterNode) roundTrip(ctx context.Context, method, url string, body []byte, read func(io.Reader) error) (healthy bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return client.Answered(resp.StatusCode), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if read != nil {
		if err := read(io.LimitReader(resp.Body, maxBlobBytes)); err != nil {
			return false, err
		}
	}
	return true, nil
}

// --- repair ------------------------------------------------------------------

// fetchFromReplicas tries to fill a local miss from the key's other
// replicas before the caller falls back to recomputing. The fetched
// envelope is hash-verified by PutSealed, counted in Stats.Repaired, and
// persisted, so the repair also heals this node's disk.
func (s *Server) fetchFromReplicas(ctx context.Context, key expstore.Key) ([]byte, bool) {
	c := s.cluster
	if c == nil {
		return nil, false
	}
	for _, peer := range c.replicas(key) {
		if peer == c.self {
			continue
		}
		sealed, err := c.getBlob(ctx, peer, string(key))
		if err != nil {
			continue
		}
		if err := s.store.PutSealed(key, sealed, true); err != nil {
			s.cfg.Logf("spurd: repairing %.12s from %s: %v", key, peer, err)
			continue
		}
		s.cfg.Logf("spurd: repaired %.12s from replica %s", key, peer)
		if data, ok := s.store.Get(key); ok {
			return data, true
		}
	}
	return nil, false
}

// getBlob fetches one sealed blob from a peer. Verification happens at
// PutSealed; this only moves bytes.
func (c *clusterNode) getBlob(ctx context.Context, peer, key string) ([]byte, error) {
	var sealed []byte
	err := c.call(ctx, http.MethodGet, peer, "/v1/cluster/blob/"+key, nil, func(r io.Reader) (err error) {
		sealed, err = io.ReadAll(r)
		return err
	})
	return sealed, err
}

// --- cluster endpoints -------------------------------------------------------

// handleCluster answers GET /v1/cluster: this node's membership view with
// a live health probe of every peer.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	info := cluster.Info{
		Self:        c.self,
		Version:     spur.Version,
		Replication: c.rep,
	}
	for _, peer := range c.ring.Peers() {
		ph := cluster.PeerHealth{URL: peer, Status: "ok"}
		if peer == c.self {
			ph.Status = "self"
		} else if err := c.probe(r.Context(), peer); err != nil {
			ph.Status = "down"
			ph.Err = err.Error()
		}
		info.Peers = append(info.Peers, ph)
	}
	writeJSON(w, info)
}

// probe checks one peer's /healthz. It bypasses the peer's breaker:
// probes are how an operator (and GET /v1/cluster) sees a down peer as
// down, and their outcome must not depend on breaker state.
func (c *clusterNode) probe(ctx context.Context, peer string) error {
	_, err := c.roundTrip(ctx, http.MethodGet, peer+"/healthz", nil, nil)
	return err
}

// handleBlobGet serves one sealed blob for replica transfer.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	key := expstore.Key(r.PathValue("key"))
	sealed, ok := s.store.GetSealed(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no blob %.12s on this node", string(key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A write error means the fetching peer hung up; it will retry.
	_, _ = w.Write(sealed)
}

// handleBlobPut accepts a replicated sealed blob. The envelope hash is
// verified before anything is persisted; accepting a duplicate is a no-op
// success, which makes outbox retries idempotent.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	key := expstore.Key(r.PathValue("key"))
	sealed, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading blob: %v", err)
		return
	}
	if err := s.store.PutSealed(key, sealed, false); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterScrub answers POST /v1/cluster/scrub: an on-demand store
// integrity pass that quarantines rot, so drills need not wait for the
// background cadence. A quarantined blob comes back on its next request,
// from a replica or a recompute.
func (s *Server) handleClusterScrub(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Scrub expstore.ScrubReport `json:"scrub"`
	}{s.store.Scrub()})
}
