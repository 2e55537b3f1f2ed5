package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/expstore"
	"repro/pkg/client"
)

// This file makes a spurd node fleet-aware. Placement comes from
// internal/cluster's consistent-hash ring: every result key has an owner
// and M−1 replicas. A node that receives a request it is not a replica for
// proxies it to the owner (bounded hop count, failing over through the
// replica list); a node that computes a result replicates it to the other
// replicas through the durable outbox; and a node that is missing a blob
// it should hold — a miss, a quarantined corruption, a disk lost to a
// crash — first repairs it from a replica (re-verifying the sealed
// envelope) before burning simulator cycles on a recompute.

const (
	// hopHeader counts proxy forwards so a misconfigured fleet degrades
	// into local computes instead of a forwarding loop.
	hopHeader = "X-Spur-Hops"
	// maxHops is the proxy hop budget: a request that has been forwarded
	// this many times is served where it lands.
	maxHops = 2
	// nodeHeader names the node that actually produced the response, so
	// drills can assert where a request landed.
	nodeHeader = "X-Spur-Node"
	// maxBlobBytes bounds a replicated blob (matches the journal's frame
	// bound; the biggest sweep payloads are far below it).
	maxBlobBytes = 64 << 20
)

// clusterNode is the server's view of the fleet.
type clusterNode struct {
	self   string
	ring   *cluster.Ring
	rep    int
	outbox *cluster.Outbox
	hc     *http.Client
	// breakers holds one outgoing circuit breaker per other peer. The map
	// is static after newClusterNode; each Breaker locks itself. Health
	// probes bypass it — an operator must see a down peer as down, not as
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
		breakers: make(map[string]*client.Breaker),
	}
	for _, p := range ring.Peers() {
		if p != cfg.Self {
			c.breakers[p] = client.NewBreaker(0, 0, nil)
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

// anyBreakerOpen reports whether some peer is currently being skipped —
// the signal that this node is absorbing a degraded fleet's extra load.
func (c *clusterNode) anyBreakerOpen() bool {
	for _, b := range c.breakers {
		if b.State() == client.BreakerOpen {
			return true
		}
	}
	return false
}

// replicas returns key's replica set, owner first.
func (c *clusterNode) replicas(key expstore.Key) []string {
	return c.ring.Replicas(string(key), c.rep)
}

// isReplica reports whether this node is in key's replica set.
func (c *clusterNode) isReplica(key expstore.Key) bool {
	return c.ring.Owns(c.self, string(key), c.rep)
}

// --- request routing ---------------------------------------------------------

// proxyIfRemote routes a request whose key this node does not replicate:
// it forwards to the owner, failing over through the replica list, and
// streams the first usable response back. It returns true when the
// response has been written. A false return means the caller should serve
// locally — either this node is a replica, the hop budget is spent, or
// every replica is unreachable (any node can compute any result, so
// availability wins).
func (s *Server) proxyIfRemote(w http.ResponseWriter, r *http.Request, key expstore.Key, body any) bool {
	c := s.cluster
	if c == nil {
		return false
	}
	if c.isReplica(key) {
		w.Header().Set(nodeHeader, c.self)
		return false
	}
	hops := 0
	if h := r.Header.Get(hopHeader); h != "" {
		hops, _ = strconv.Atoi(h)
	}
	if hops >= maxHops {
		s.cfg.Logf("spurd: hop budget (%d) spent for %.12s; serving locally", maxHops, key)
		w.Header().Set(nodeHeader, c.self)
		return false
	}
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			w.Header().Set(nodeHeader, c.self)
			return false
		}
	}
	for _, peer := range c.replicas(key) {
		br := c.breakers[peer]
		if !br.Allow() {
			s.cfg.Logf("spurd: proxying %.12s: skipping %s (breaker open)", key, peer)
			continue
		}
		resp, err := c.forward(r, peer, payload, hops+1)
		if err != nil {
			br.Record(false)
			s.cfg.Logf("spurd: proxying %.12s to %s: %v", key, peer, err)
			continue
		}
		if resp.StatusCode/100 == 5 {
			br.Record(false)
			_ = resp.Body.Close() // failing over; the body is dead weight
			s.cfg.Logf("spurd: proxying %.12s to %s: status %d", key, peer, resp.StatusCode)
			continue
		}
		br.Record(true)
		copyResponse(w, resp)
		_ = resp.Body.Close() // drained by copyResponse; close is bookkeeping
		return true
	}
	s.cfg.Logf("spurd: no replica of %.12s reachable; computing locally", key)
	w.Header().Set(nodeHeader, c.self)
	return false
}

// forward re-issues r against peer with the hop counter bumped. The
// caller's context bounds the wait: proxied computes can take as long as
// local ones, so there is no per-peer timeout here — a dead peer fails
// fast at connect time.
func (c *clusterNode) forward(r *http.Request, peer string, payload []byte, hops int) (*http.Response, error) {
	url := peer + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(hopHeader, strconv.Itoa(hops))
	return c.hc.Do(req)
}

// copyResponse streams an upstream response through, preserving the
// headers the service's clients read.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "X-Spur-Key", "X-Spur-Cached", nodeHeader, "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// A copy error means our client hung up; the upstream result is safe
	// in the owner's store regardless.
	_, _ = io.Copy(w, resp.Body)
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
// left to push; anti-entropy will heal the replica from another copy).
func (s *Server) sendBlob(peer, key string) error {
	sealed, ok := s.store.GetSealed(expstore.Key(key))
	if !ok {
		s.cfg.Logf("spurd: replication of %.12s to %s dropped: blob no longer held locally", key, peer)
		return nil
	}
	br := s.cluster.breakers[peer]
	if !br.Allow() {
		// The outbox keeps the debt and retries on its backoff schedule;
		// skipping here just avoids hammering a peer everyone agrees is down.
		return fmt.Errorf("peer %s: %w", peer, errPeerBreakerOpen)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/v1/cluster/blob/"+key, bytes.NewReader(sealed))
	if err != nil {
		br.Record(false)
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cluster.hc.Do(req)
	if err != nil {
		br.Record(false)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// The peer answered, so it is alive; a 4xx (rejected envelope) is
		// an authoritative answer, not an availability failure.
		br.Record(peerAnswered(resp.StatusCode))
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("peer %s: status %d: %s", peer, resp.StatusCode, bytes.TrimSpace(b))
	}
	br.Record(true)
	return nil
}

// errPeerBreakerOpen marks a peer call skipped by its open breaker.
var errPeerBreakerOpen = errors.New("circuit breaker open")

// peerAnswered reports whether a non-2xx status still counts as a healthy
// peer for breaker accounting: any 4xx except 429. A 429 is the peer
// shedding load, and must count against it like an availability failure
// (mirroring the client's authoritative()), or the breaker never opens and
// backoff pressure on an overloaded peer is never reduced.
func peerAnswered(code int) bool {
	return code/100 == 4 && code != http.StatusTooManyRequests
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
		sealed, err := c.getBlob(ctx, peer, string(key), s.cfg.PeerTimeout)
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

// RepairReport summarizes one anti-entropy pass over the fleet.
type RepairReport struct {
	// PeersChecked peers answered their key inventory; PeerErrors did not.
	PeersChecked int `json:"peers_checked"`
	PeerErrors   int `json:"peer_errors"`
	// KeysChecked keys on those peers belong to this node's replica share;
	// Repaired of them were missing (or quarantined) locally and were
	// restored from the peer, hash-verified, without recompute. Errors are
	// failed blob fetches or rejected envelopes.
	KeysChecked int `json:"keys_checked"`
	Repaired    int `json:"repaired"`
	Errors      int `json:"errors"`
}

// RepairFromPeers is the cluster half of the scrubber: ask every peer for
// its key inventory and pull in any key this node should replicate but
// does not hold. Paired with the store's Scrub (which turns corruption
// into absence), it restores a node after a crash or disk loss from its
// replicas, recomputing nothing.
func (s *Server) RepairFromPeers(ctx context.Context) RepairReport {
	var rep RepairReport
	c := s.cluster
	if c == nil {
		return rep
	}
	for _, peer := range c.ring.Peers() {
		if peer == c.self {
			continue
		}
		keys, err := c.getKeys(ctx, peer, s.cfg.PeerTimeout)
		if err != nil {
			rep.PeerErrors++
			s.cfg.Logf("spurd: repair: inventory from %s: %v", peer, err)
			continue
		}
		rep.PeersChecked++
		for _, k := range keys {
			key := expstore.Key(k)
			if !c.isReplica(key) {
				continue
			}
			rep.KeysChecked++
			if s.store.Has(key) {
				continue
			}
			sealed, err := c.getBlob(ctx, peer, k, s.cfg.PeerTimeout)
			if err != nil {
				rep.Errors++
				continue
			}
			if err := s.store.PutSealed(key, sealed, true); err != nil {
				rep.Errors++
				s.cfg.Logf("spurd: repair: %.12s from %s: %v", k, peer, err)
				continue
			}
			rep.Repaired++
		}
	}
	if rep.Repaired > 0 {
		s.cfg.Logf("spurd: repair: restored %d blobs from replicas (%d keys checked across %d peers)",
			rep.Repaired, rep.KeysChecked, rep.PeersChecked)
	}
	return rep
}

// getBlob fetches one sealed blob from a peer. Verification happens at
// PutSealed; this only moves bytes.
func (c *clusterNode) getBlob(ctx context.Context, peer, key string, timeout time.Duration) ([]byte, error) {
	br := c.breakers[peer]
	if !br.Allow() {
		return nil, fmt.Errorf("peer %s: %w", peer, errPeerBreakerOpen)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cluster/blob/"+key, nil)
	if err != nil {
		br.Record(false)
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		br.Record(false)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A 404 — the peer does not hold the blob — is a healthy answer.
		br.Record(peerAnswered(resp.StatusCode))
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
	br.Record(err == nil)
	return b, err
}

// getKeys fetches a peer's store inventory.
func (c *clusterNode) getKeys(ctx context.Context, peer string, timeout time.Duration) ([]string, error) {
	br := c.breakers[peer]
	if !br.Allow() {
		return nil, fmt.Errorf("peer %s: %w", peer, errPeerBreakerOpen)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cluster/keys", nil)
	if err != nil {
		br.Record(false)
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		br.Record(false)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		br.Record(peerAnswered(resp.StatusCode))
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
	var out struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBlobBytes)).Decode(&out); err != nil {
		br.Record(false)
		return nil, err
	}
	br.Record(true)
	return out.Keys, nil
}

// --- cluster endpoints -------------------------------------------------------

// handleCluster answers GET /v1/cluster: this node's membership view with
// a live health probe of every peer.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	info := cluster.Info{
		Self:        c.self,
		Version:     s.cfg.Version,
		Replication: c.rep,
	}
	for _, peer := range c.ring.Peers() {
		ph := cluster.PeerHealth{URL: peer, Status: "ok"}
		if peer == c.self {
			ph.Status = "self"
		} else if err := c.probe(r.Context(), peer, s.cfg.PeerTimeout); err != nil {
			ph.Status = "down"
			ph.Err = err.Error()
		}
		info.Peers = append(info.Peers, ph)
	}
	writeJSON(w, info)
}

// probe checks one peer's /healthz. It deliberately bypasses the peer's
// breaker: probes are how an operator (and GET /v1/cluster) sees a down
// peer as down, and their outcome must not depend on breaker state.
func (c *clusterNode) probe(ctx context.Context, peer string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// handleClusterKeys answers GET /v1/cluster/keys: the store inventory
// anti-entropy repair walks.
func (s *Server) handleClusterKeys(w http.ResponseWriter, r *http.Request) {
	keys := s.store.Keys()
	out := struct {
		Keys []string `json:"keys"`
	}{Keys: make([]string, len(keys))}
	for i, k := range keys {
		out.Keys[i] = string(k)
	}
	writeJSON(w, out)
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

// handleClusterScrub answers POST /v1/cluster/scrub: an on-demand
// integrity pass — local scrub (quarantine rot) then replica repair (refill
// what is missing) — so drills do not have to wait for the background
// cadence.
func (s *Server) handleClusterScrub(w http.ResponseWriter, r *http.Request) {
	scrub := s.store.Scrub()
	repair := s.RepairFromPeers(r.Context())
	writeJSON(w, struct {
		Scrub  expstore.ScrubReport `json:"scrub"`
		Repair RepairReport         `json:"repair"`
	}{scrub, repair})
}
