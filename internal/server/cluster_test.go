package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/expstore"
	"repro/pkg/client"
)

// drillClient makes the tests' direct HTTP calls. Keep-alives are off
// because nodes are killed and restarted on the same address mid-test: a
// pooled connection into the dead instance would surface as an EOF that
// has nothing to do with the behavior under test.
var drillClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// testNode is one fleet member run in-process: a real Server behind a real
// TCP listener, killable and restartable on the same address and store.
type testNode struct {
	t        *testing.T
	url      string
	addr     string
	storeDir string
	cfg      Config
	srv      *Server
	hs       *http.Server
	computes atomic.Int64
	done     chan struct{}
}

// start binds (or rebinds) the node's address and serves a fresh Server
// over the node's persistent store and outbox journal.
func (n *testNode) start(ln net.Listener) {
	n.t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", n.addr); err != nil {
			n.t.Fatalf("rebinding %s: %v", n.addr, err)
		}
	}
	srv, err := New(n.cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.srv = srv
	n.hs = &http.Server{Handler: srv}
	n.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		// ErrServerClosed is the normal kill path; anything else would
		// surface as the test's requests failing.
		_ = hs.Serve(ln)
	}(n.hs, n.done)
}

// kill stops the node abruptly: listener and connections die mid-flight,
// no drain. Journals stay on disk exactly as a crash would leave them.
func (n *testNode) kill() {
	n.t.Helper()
	if err := n.hs.Close(); err != nil {
		n.t.Logf("killing node %s: %v", n.url, err)
	}
	<-n.done
	// The process would be gone after SIGKILL; releasing the journal file
	// handles stands in for that so the restart can reopen them.
	if err := n.srv.Close(); err != nil {
		n.t.Logf("closing killed node %s: %v", n.url, err)
	}
}

// wipeStore simulates losing the node's disk.
func (n *testNode) wipeStore() {
	n.t.Helper()
	if err := os.RemoveAll(n.storeDir); err != nil {
		n.t.Fatal(err)
	}
}

// testCluster is a 3-node fleet plus the ring the tests use to predict
// placement.
type testCluster struct {
	nodes []*testNode
	urls  []string
	ring  *cluster.Ring
	rep   int
}

func startCluster(t *testing.T, n, replication int) *testCluster {
	t.Helper()
	// Peer URLs must be known before any node starts, so bind first.
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{urls: urls, ring: ring, rep: replication}
	for i := range urls {
		node := &testNode{
			t:        t,
			url:      urls[i],
			addr:     strings.TrimPrefix(urls[i], "http://"),
			storeDir: t.TempDir(),
		}
		node.cfg = Config{
			StoreDir:    node.storeDir,
			Self:        node.url,
			Peers:       urls,
			Replication: replication,
			Outbox:      node.storeDir + "/outbox.journal",
			PeerTimeout: 2 * time.Second,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "computed") {
					node.computes.Add(1)
				}
			},
		}
		node.start(lns[i])
		tc.nodes = append(tc.nodes, node)
	}
	// Cleanups run last-in first-out, so this one, registered after every
	// node's TempDir, stops the whole fleet before any store directory is
	// removed: a node left running could still be writing a replicated
	// blob into a peer's store. Shutdown waits for in-flight handlers,
	// which http.Server.Close does not; Server.Close then stops the
	// outboxes and the job journals.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, n := range tc.nodes {
			if err := n.hs.Shutdown(ctx); err != nil {
				_ = n.hs.Close()
			}
		}
		for _, n := range tc.nodes {
			_ = n.srv.Close()
		}
	})
	return tc
}

func (tc *testCluster) node(url string) *testNode {
	for _, n := range tc.nodes {
		if n.url == url {
			return n
		}
	}
	tc.nodes[0].t.Fatalf("no node at %s", url)
	return nil
}

// placement returns (replica URLs owner-first, one non-replica URL) for a
// key, skipping t if the replication factor leaves no non-replica.
func (tc *testCluster) placement(key expstore.Key) (replicas []string, outsider string) {
	replicas = tc.ring.Replicas(string(key), tc.rep)
	for _, u := range tc.urls {
		in := false
		for _, r := range replicas {
			if r == u {
				in = true
			}
		}
		if !in {
			return replicas, u
		}
	}
	return replicas, ""
}

// sweepKey is the store key the server files a sweep request under.
func sweepKey(t *testing.T, req client.SweepRequest) expstore.Key {
	t.Helper()
	job, err := client.SweepJob(&req)
	if err != nil {
		t.Fatal(err)
	}
	return job.Key
}

func testSweepReq(seed uint64) client.SweepRequest {
	return client.SweepRequest{
		Workloads: []string{"SLC"},
		SizesMB:   []int{2, 3},
		Policies:  []string{"MISS"},
		Refs:      testRefs / 4,
		Seed:      seed,
	}
}

// rawSweep posts a sweep straight at one node (no client retries) and
// returns body, whether the node served it from a store, and the status.
func rawSweep(t *testing.T, url string, req client.SweepRequest) (body []byte, cached bool, status int) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := drillClient.Post(url+"/v1/sweep", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s/v1/sweep: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.Header.Get("X-Spur-Cached") == "true", resp.StatusCode
}

// waitReplicated polls until every replica of key holds the blob (the
// outbox delivers asynchronously) or the deadline passes.
func (tc *testCluster) waitReplicated(t *testing.T, key expstore.Key) {
	t.Helper()
	replicas, _ := tc.placement(key)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, u := range replicas {
			if !tc.node(u).srv.Store().Has(key) {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("blob %.12s not on all replicas %v within deadline", key, replicas)
}

// TestClusterOutsiderServesReplicaCopy: a node outside a key's replica set
// serves a key the fleet already holds from one replica fetch — the same
// bytes, marked cached, counted as a repair, with no simulator work.
func TestClusterOutsiderServesReplicaCopy(t *testing.T) {
	tc := startCluster(t, 3, 2)
	req := testSweepReq(11)
	key := sweepKey(t, req)
	replicas, outsider := tc.placement(key)
	if outsider == "" {
		t.Fatal("replication 2 of 3 must leave one non-replica")
	}
	want, _, status := rawSweep(t, replicas[0], req)
	if status != http.StatusOK {
		t.Fatalf("status %d from owner: %s", status, want)
	}
	tc.waitReplicated(t, key)

	out := tc.node(outsider)
	repairedBefore := out.srv.Store().Stats().Repaired
	got, cached, status := rawSweep(t, outsider, req)
	if status != http.StatusOK {
		t.Fatalf("status %d from non-replica: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("non-replica served different bytes than the owner's compute")
	}
	if !cached {
		t.Error("non-replica's reply not marked cached")
	}
	if n := out.computes.Load(); n != 0 {
		t.Errorf("non-replica computed %d times, want 0", n)
	}
	if got := out.srv.Store().Stats().Repaired - repairedBefore; got != 1 {
		t.Errorf("non-replica's store.repaired rose by %d, want 1", got)
	}
}

// TestClusterOutsiderComputesAndReplicates: a key nobody holds, asked of a
// node outside its replica set, is computed there once, and the outbox then
// lands it on both replicas.
func TestClusterOutsiderComputesAndReplicates(t *testing.T) {
	tc := startCluster(t, 3, 2)
	req := testSweepReq(12)
	key := sweepKey(t, req)
	replicas, outsider := tc.placement(key)

	body, cached, status := rawSweep(t, outsider, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if cached {
		t.Error("a key nobody held came back cached")
	}
	if n := tc.node(outsider).computes.Load(); n != 1 {
		t.Errorf("non-replica computed %d times, want 1", n)
	}
	tc.waitReplicated(t, key)
	for _, u := range replicas {
		if n := tc.node(u).computes.Load(); n != 0 {
			t.Errorf("replica %s computed %d times, want 0", u, n)
		}
	}
}

func TestClusterAllReplicasDownComputesLocally(t *testing.T) {
	tc := startCluster(t, 3, 2)
	req := testSweepReq(13)
	key := sweepKey(t, req)
	replicas, outsider := tc.placement(key)
	for _, u := range replicas {
		tc.node(u).kill()
	}

	body, _, status := rawSweep(t, outsider, req)
	if status != http.StatusOK {
		t.Fatalf("status %d with replicas down: %s", status, body)
	}
	if n := tc.node(outsider).computes.Load(); n != 1 {
		t.Errorf("non-replica computed %d times with every replica down, want 1 (availability first)", n)
	}
}

// TestClusterRestartPushesOwedBlob restarts a node whose store holds one
// blob and whose outbox journal still owes it to a dead peer. The outbox's
// sender pushes replayed debts as soon as it starts, while New is still
// assembling the server; under -race this checks that the push sees the
// finished cluster node.
func TestClusterRestartPushesOwedBlob(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	self := "http://127.0.0.1:1" // never served: only the outbox runs
	store, err := expstore.Open(dir, expstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := sweepKey(t, testSweepReq(51))
	if err := store.Put(key, []byte("[]")); err != nil {
		t.Fatal(err)
	}
	journal := dir + "/outbox.journal"
	ob, err := cluster.OpenOutbox(journal, spur.Version, func(string, string) error { return errors.New("peer down") }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Enqueue(string(key), []string{dead}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{
		Store:       store,
		Self:        self,
		Peers:       []string{self, dead},
		Replication: 2,
		Outbox:      journal,
		PeerTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for srv.cluster.outbox.Stats().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted outbox never tried its owed push: %+v", srv.cluster.outbox.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterHealthzReportsFleet(t *testing.T) {
	tc := startCluster(t, 3, 2)
	c := client.New(tc.urls[0])
	c.Retries = -1
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("clustered /healthz has no cluster section")
	}
	if h.Cluster.Self != tc.urls[0] || h.Cluster.Peers != 3 || h.Cluster.Replication != 2 {
		t.Errorf("cluster stats %+v, want self=%s peers=3 replication=2", h.Cluster, tc.urls[0])
	}
	if h.Version != spur.Version {
		t.Errorf("healthz version %q, want %q", h.Version, spur.Version)
	}
}

func TestClusterMembershipEndpoint(t *testing.T) {
	tc := startCluster(t, 3, 2)
	tc.nodes[2].kill()

	resp, err := drillClient.Get(tc.urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info cluster.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Self != tc.urls[0] || len(info.Peers) != 3 {
		t.Fatalf("membership %+v, want self + 3 peers", info)
	}
	status := map[string]string{}
	for _, p := range info.Peers {
		status[p.URL] = p.Status
	}
	if status[tc.urls[0]] != "self" || status[tc.urls[1]] != "ok" || status[tc.urls[2]] != "down" {
		t.Errorf("peer status %v, want self/ok/down", status)
	}
}

// TestClusterRepairWithoutRecompute: a replica that lost its disk gets a
// blob back on the blob's next request, from the other replica —
// hash-verified, counted, byte-identical and with zero simulator work.
func TestClusterRepairWithoutRecompute(t *testing.T) {
	tc := startCluster(t, 3, 2)
	req := testSweepReq(14)
	key := sweepKey(t, req)
	replicas, _ := tc.placement(key)
	owner := tc.node(replicas[0])

	want, _, status := rawSweep(t, owner.url, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	tc.waitReplicated(t, key)

	// The second replica loses its disk and restarts empty.
	victim := tc.node(replicas[1])
	victim.kill()
	victim.wipeStore()
	victim.start(nil)
	if victim.srv.Store().Has(key) {
		t.Fatal("wiped node still has the blob")
	}

	got, cached, status := rawSweep(t, victim.url, req)
	if status != http.StatusOK {
		t.Fatalf("status %d from the wiped replica: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("wiped replica serves different bytes than the original compute")
	}
	if !cached {
		t.Error("wiped replica's reply not marked cached")
	}
	if got := victim.srv.Store().Stats().Repaired; got == 0 {
		t.Error("store Repaired counter not bumped")
	}
	restored, ok := victim.srv.Store().GetSealed(key)
	if !ok {
		t.Fatal("blob not restored on the wiped replica")
	}
	if donor, _ := owner.srv.Store().GetSealed(key); !bytes.Equal(restored, donor) {
		t.Error("restored blob differs from the replica's copy")
	}
	if victim.computes.Load() != 0 {
		t.Error("the wiped replica recomputed instead of fetching from a replica")
	}
}

// TestFleetRoutesSampledSweepToItsReplicas: Fleet routes a sampled sweep by
// the key spurd stores it under, so once the outboxes flush the result sits
// on its replicas and nowhere else. Placement follows the nodes' random
// ports, so the test picks the first seed whose owner under the exact
// "sweep" kind lies outside the sampled key's replicas: a router that
// hashed the request under that kind would leave a third copy.
func TestFleetRoutesSampledSweepToItsReplicas(t *testing.T) {
	tc := startCluster(t, 3, 2)
	fleet, err := client.NewFleet(tc.urls, client.FleetOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	var req client.SweepRequest
	for seed := uint64(1); ; seed++ {
		req = client.SweepRequest{
			Workloads:   []string{"SLC"},
			SizesMB:     []int{6, 8},
			Refs:        testRefs,
			Seed:        seed,
			Sample:      true,
			IntervalLen: 20_000,
		}
		job, err := client.SweepJob(&req)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := expstore.KeyOf(spur.Version, "sweep", job.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(tc.ring.Replicas(string(job.Key), 2), tc.ring.Replicas(string(exact), 2)[0]) {
			break
		}
	}
	_, meta, err := fleet.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tc.nodes {
		if !n.srv.cluster.outbox.Flush(time.Now().Add(10 * time.Second)) {
			t.Fatalf("%s's outbox never flushed: %+v", n.url, n.srv.cluster.outbox.Stats())
		}
	}
	replicas := fleet.Replicas(meta.Key)
	for _, n := range tc.nodes {
		want := slices.Contains(replicas, n.url)
		if got := n.srv.Store().Has(expstore.Key(meta.Key)); got != want {
			t.Errorf("%s holds the sampled sweep: %v, want %v (replicas %v)", n.url, got, want, replicas)
		}
	}
}

// TestClusterKillDrill is the acceptance drill: three nodes, live load, one
// node killed mid-drill. Every request — before, during, after — completes,
// repeated requests return byte-identical bodies, and the restarted node is
// healed by the survivors' outboxes without recomputing anything.
func TestClusterKillDrill(t *testing.T) {
	tc := startCluster(t, 3, 2)
	fleet, err := client.NewFleet(tc.urls, client.FleetOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Template.Backoff = 5 * time.Millisecond
	fleet.Template.MaxBackoff = 50 * time.Millisecond

	ctx := context.Background()
	seeds := []uint64{21, 22, 23, 24}
	baseline := map[uint64][]byte{}
	for _, seed := range seeds {
		body, _, err := fleet.Sweep(ctx, testSweepReq(seed))
		if err != nil {
			t.Fatalf("baseline sweep seed %d: %v", seed, err)
		}
		baseline[seed] = body
	}
	for _, seed := range seeds {
		tc.waitReplicated(t, sweepKey(t, testSweepReq(seed)))
	}

	// Kill one replica-holding node mid-drill.
	victim := tc.node(tc.ring.Replicas(string(sweepKey(t, testSweepReq(seeds[0]))), 2)[0])
	victim.kill()

	// The degraded fleet still answers everything: the old seeds
	// byte-identically (from surviving replicas), and brand-new work too.
	newSeeds := []uint64{25, 26}
	for _, seed := range seeds {
		body, _, err := fleet.Sweep(ctx, testSweepReq(seed))
		if err != nil {
			t.Fatalf("degraded sweep seed %d: %v", seed, err)
		}
		if !bytes.Equal(body, baseline[seed]) {
			t.Errorf("seed %d: degraded fleet returned different bytes", seed)
		}
	}
	for _, seed := range newSeeds {
		body, _, err := fleet.Sweep(ctx, testSweepReq(seed))
		if err != nil {
			t.Fatalf("sweep seed %d with a node down: %v", seed, err)
		}
		baseline[seed] = body
	}

	// Restart the victim on its old store and flush the survivors'
	// outboxes: what it missed while dead (computed meanwhile) is pushed
	// to it, not recomputed.
	victim.start(nil)
	computesBefore := victim.computes.Load()
	for _, n := range tc.nodes {
		if n != victim && !n.srv.cluster.outbox.Flush(time.Now().Add(20*time.Second)) {
			t.Fatalf("%s's outbox never flushed: %+v", n.url, n.srv.cluster.outbox.Stats())
		}
	}
	if victim.computes.Load() != computesBefore {
		t.Error("post-restart delivery recomputed results")
	}
	for seed := range baseline {
		key := sweepKey(t, testSweepReq(seed))
		if slices.Contains(tc.ring.Replicas(string(key), 2), victim.url) && !victim.srv.Store().Has(key) {
			t.Errorf("restarted node missing replica blob for seed %d", seed)
		}
	}

	// Whole-fleet replay: every node, every seed, byte-identical.
	for _, seed := range append(seeds, newSeeds...) {
		body, _, err := fleet.Sweep(ctx, testSweepReq(seed))
		if err != nil {
			t.Fatalf("healed-fleet sweep seed %d: %v", seed, err)
		}
		if !bytes.Equal(body, baseline[seed]) {
			t.Errorf("seed %d: healed fleet returned different bytes", seed)
		}
	}
}
