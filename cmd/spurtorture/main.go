// Command spurtorture is the repository's fault-injection soak driver: it
// stands up a 3-node spurd fleet, drives a fixed experiment workload
// through the cluster-aware client, and between rounds subjects one node
// at a time to a seeded schedule of partitions, slow peers, corrupted
// response bodies, filling disks, flipped blob bits, and abrupt kills —
// then checks, every round, that the fleet still tells the truth.
//
// Invariants verified each round:
//
//   - every workload request succeeds within its deadline budget, faults
//     or not (the client's failover, breakers and retry budget absorb
//     them);
//   - every response is byte-identical to the clean-fleet baseline;
//   - once the round's faults are disarmed, every node converges: outbox
//     drained, journaled jobs settled, /healthz answering;
//   - a blob rotted on one node comes back through the request path:
//     asked for it after the scrub, the node answers with the clean bytes
//     and counts one repair from a replica;
//   - at the end, quarantined `.corrupt` blobs exactly account for the
//     bit rot the driver planted — no blob rots silently, none is
//     quarantined without cause.
//
// The schedule is a pure function of -seed: the first six rounds are a
// seeded permutation of all six event kinds (so any -rounds >= 6 run
// covers each at least once), later rounds draw randomly. Two runs with
// the same seed print the same schedule digest.
//
// Usage:
//
//	spurtorture -seed 1 -rounds 6                 # in-process fleet
//	spurtorture -mode subprocess -bin ./spurd     # real processes, real SIGKILL
//
// In-process mode shares the harness process (kills are listener+journal
// teardowns, disk faults arm the process-global seam scoped to the victim's
// store path); subprocess mode spawns real spurd daemons, delivers real
// SIGKILLs, and arms fault planes through spurd's -net-faults/-disk-faults
// flags, which costs a respawn per armed round. Exit status 0 means zero
// invariant violations.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/expstore"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/pkg/client"
)

// Event kinds, one per fault family the torture schedule draws from.
const (
	evPartition = "partition"   // victim blackholes all inbound traffic
	evSlowPeer  = "slowpeer"    // victim delays every response
	evCorrupt   = "corruptbody" // victim mangles blob and tables bodies
	evENOSPC    = "enospc"      // victim's disk writes start failing
	evBitrot    = "bitrot"      // one stored blob gets a flipped bit
	evKill      = "kill"        // victim dies abruptly mid-round
)

var eventKinds = []string{evPartition, evSlowPeer, evCorrupt, evENOSPC, evBitrot, evKill}

// fleetSize and replication mirror the smallest interesting spurd fleet:
// enough nodes that every key has a live replica when one node is down.
const (
	fleetSize   = 3
	replication = 2
)

// Workload scale: small enough that a round is seconds, big enough that
// runs exercise the real simulator rather than degenerate cases.
const (
	tortureRunRefs   = 200_000
	tortureSweepRefs = 100_000
	tortureTableRefs = 50_000
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "torture schedule seed (same seed, same schedule)")
	rounds := flag.Int("rounds", 6, "fault rounds after the clean baseline (>= 6 covers every event kind)")
	mode := flag.String("mode", "inproc", `fleet mode: "inproc" (shared process) or "subprocess" (real spurd daemons, real SIGKILL)`)
	bin := flag.String("bin", "spurd", "spurd binary for -mode subprocess")
	reqDeadline := flag.Duration("req-deadline", 60*time.Second, "per-request deadline budget; exceeding it is an invariant violation")
	drainBudget := flag.Duration("drain", 2*time.Minute, "post-round convergence budget (outbox drained, jobs settled)")
	verbose := flag.Bool("v", false, "log every node's server output")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *rounds < 1 {
		fmt.Fprintln(os.Stderr, "spurtorture: -rounds must be at least 1")
		return 2
	}
	root, err := os.MkdirTemp("", "spurtorture-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spurtorture:", err)
		return 1
	}

	h := &harness{
		// The schedule stream decides kinds and victims; the aux stream
		// absorbs incidental draws (which blob to rot) whose input — the
		// store listing — depends on replication timing, so consuming it
		// never desynchronizes the schedule across same-seed runs.
		rnd:         newRNG(*seed),
		aux:         newRNG(*seed ^ 0x9e3779b97f4a7c15),
		reqDeadline: *reqDeadline,
		drainBudget: *drainBudget,
		baseline:    make(map[string][]byte),
	}
	defer h.teardown()

	switch *mode {
	case "inproc":
		err = h.buildInproc(root, *verbose)
	case "subprocess":
		err = h.buildSubprocess(root, *bin)
	default:
		fmt.Fprintf(os.Stderr, "spurtorture: unknown -mode %q\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spurtorture:", err)
		return 1
	}
	log.Printf("torture: %d-node fleet up (%s mode, replication %d), seed %d, %d rounds, dirs under %s",
		fleetSize, *mode, replication, *seed, *rounds, root)

	// Round 0: clean-fleet baseline. Every later round must reproduce
	// these bytes exactly, whatever is on fire at the time.
	log.Printf("torture: round 0: clean baseline")
	f := h.newFleet()
	for _, it := range suite() {
		b, err := h.execute(f, it)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spurtorture: clean baseline %s failed: %v\n", it.name, err)
			return 1
		}
		h.baseline[it.name] = b
	}
	h.drain(0)

	// The first len(eventKinds) rounds are a seeded permutation, so every
	// kind fires at least once; extra rounds draw uniformly.
	order := append([]string(nil), eventKinds...)
	h.rnd.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for r := 1; r <= *rounds; r++ {
		kind := order[(r-1)%len(order)]
		if r > len(order) {
			kind = eventKinds[h.rnd.intn(len(eventKinds))]
		}
		h.round(r, kind)
	}

	h.finalVerify()

	digest := sha256.Sum256([]byte(strings.Join(h.schedule, "\n")))
	log.Printf("torture: schedule digest %x (seed %d)", digest[:8], *seed)
	if len(h.violations) > 0 {
		for _, v := range h.violations {
			fmt.Fprintf(os.Stderr, "spurtorture: VIOLATION: %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "spurtorture: FAIL: %d invariant violations (state kept in %s)\n",
			len(h.violations), root)
		return 1
	}
	log.Printf("torture: PASS: %d rounds, %d bit-rot plants all accounted, zero violations", *rounds, h.planted)
	h.teardown()
	_ = os.RemoveAll(root)
	return 0
}

// ---------------------------------------------------------------- harness

// node is one fleet member under torture, in-process or subprocess.
type node interface {
	URL() string
	StoreDir() string
	// Arm points the node's fault planes at the given specs
	// (ParseNetRules / ParseDiskRules syntax; empty = leave that plane
	// alone). Disarm clears both planes.
	Arm(netSpec, diskSpec string) error
	Disarm() error
	// Kill stops the node abruptly — no drain, journals left as a crash
	// would leave them. Restart brings it back on the same address and
	// store.
	Kill() error
	Restart() error
}

type harness struct {
	nodes       []node
	urls        []string
	rnd, aux    *rng
	reqDeadline time.Duration
	drainBudget time.Duration

	baseline   map[string][]byte
	fresh      []freshRun
	schedule   []string // canonical schedule lines (digest input)
	violations []string
	planted    int // bit-rot blobs planted (each must end quarantined)
}

// freshRun is a never-before-seen run computed during a faulted round; its
// bytes must survive to a clean re-read after the torture ends.
type freshRun struct {
	name string
	seed uint64
	body []byte
}

func (h *harness) violationf(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	h.violations = append(h.violations, v)
	log.Printf("torture: VIOLATION: %s", v)
}

// round runs one fault event end to end: arm (or kill), drive the full
// workload through the degraded fleet, heal, and wait for convergence.
func (h *harness) round(num int, kind string) {
	victim := h.rnd.intn(len(h.nodes))
	v := h.nodes[victim]

	var netSpec, diskSpec, diskCanon string
	switch kind {
	case evPartition:
		netSpec = "blackhole@every=1"
	case evSlowPeer:
		netSpec = "delay@every=1,ms=400"
	case evCorrupt:
		// Replica transfers are hash-verified at ingest, so corrupting
		// every blob body checks rejection, not just retry; tables
		// responses exercise the client's decode-and-retry path.
		netSpec = "corrupt@op=blob-get,every=1;corrupt@op=tables,every=2"
	case evENOSPC:
		// Scoped to the victim's store path so the harness's own files
		// (and, in-process, the other nodes) stay writable.
		diskSpec = fmt.Sprintf("enospc@op=write,path=%s,every=2,max=4", v.StoreDir())
		diskCanon = fmt.Sprintf("enospc@op=write,path=node%d/store,every=2,max=4", victim)
	}
	// The digest line uses node indices and canonical paths: temp dirs and
	// ports change run to run, the schedule must not.
	canon := fmt.Sprintf("round %d: event=%s victim=node%d net=%q disk=%q", num, kind, victim, netSpec, diskCanon)
	h.schedule = append(h.schedule, canon)
	log.Printf("torture: round %d: event=%s victim=%s net=%q disk=%q", num, kind, v.URL(), netSpec, diskSpec)

	switch kind {
	case evKill:
		if err := v.Kill(); err != nil {
			log.Printf("torture: round %d: killing %s: %v", num, v.URL(), err)
		}
	case evBitrot:
		h.plantRot(num, v)
	default:
		if err := v.Arm(netSpec, diskSpec); err != nil {
			h.violationf("round %d: arming %s: %v", num, v.URL(), err)
		}
	}

	// Fresh fleet per round: breaker state from the previous round's
	// faults must not leak into this round's verdicts.
	f := h.newFleet()
	for _, it := range suite() {
		got, err := h.execute(f, it)
		if err != nil {
			h.violationf("round %d (%s): %v", num, kind, err)
			continue
		}
		if want := h.baseline[it.name]; string(got) != string(want) {
			h.violationf("round %d (%s): %s diverged from clean baseline (%d bytes vs %d)",
				num, kind, it.name, len(got), len(want))
		}
	}
	// One never-cached compute lands *during* the fault, proving degraded
	// writes are as durable as clean ones; finalVerify re-reads it.
	fr := freshRun{name: fmt.Sprintf("fresh-%03d", num), seed: 1000 + uint64(num)}
	got, err := h.execute(f, runWork(fr.name, fr.seed))
	if err != nil {
		h.violationf("round %d (%s): fresh compute: %v", num, kind, err)
	} else {
		fr.body = got
		h.fresh = append(h.fresh, fr)
	}

	if kind == evKill {
		if err := v.Restart(); err != nil {
			h.violationf("round %d: restarting %s: %v", num, v.URL(), err)
		}
	} else if err := v.Disarm(); err != nil {
		h.violationf("round %d: disarming %s: %v", num, v.URL(), err)
	}
	h.drain(num)
}

// plantRot flips one bit in a stored blob on the victim and triggers an
// on-demand scrub, which quarantines it: the blob is never served rotten.
// The blob is one whose request the harness knows (a suite item or a fresh
// run) and that another of its replicas holds, so the harness then sends
// that request straight to the victim, which must fetch the blob back from
// that replica: the reply must equal the clean bytes, and the victim's
// store must count exactly one repair.
func (h *harness) plantRot(num int, v node) {
	type known struct {
		it   workItem
		want []byte
	}
	var cands []known
	for _, it := range suite() {
		if it.key != "" {
			cands = append(cands, known{it, h.baseline[it.name]})
		}
	}
	for _, fr := range h.fresh {
		cands = append(cands, known{runWork(fr.name, fr.seed), fr.body})
	}
	var rottable []known
	ring := h.fleetOf(h.urls)
	for _, c := range cands {
		if !fileExists(blobPath(v, c.it.key)) {
			continue
		}
		for _, u := range ring.Replicas(string(c.it.key)) {
			if u != v.URL() && fileExists(blobPath(h.nodes[slices.Index(h.urls, u)], c.it.key)) {
				rottable = append(rottable, c)
				break
			}
		}
	}
	if len(rottable) == 0 {
		log.Printf("torture: round %d: no replicated blob of a known request on %s to rot; skipping plant", num, v.URL())
		return
	}
	c := rottable[h.aux.intn(len(rottable))]
	before, err := nodeHealth(v.URL())
	if err != nil {
		h.violationf("round %d: reading %s health before rot: %v", num, v.URL(), err)
		return
	}
	target := blobPath(v, c.it.key)
	if err := faultinject.FlipBit(target, 120); err != nil {
		h.violationf("round %d: flipping bit in %s: %v", num, target, err)
		return
	}
	h.planted++
	log.Printf("torture: round %d: flipped bit 120 of %s (%s)", num, target, c.it.name)
	if err := scrubNode(v.URL()); err != nil {
		h.violationf("round %d: scrubbing %s after rot: %v", num, v.URL(), err)
	}

	got, err := h.execute(h.fleetOf([]string{v.URL()}), c.it)
	switch {
	case err != nil:
		h.violationf("round %d: %s on %s after rot: %v", num, c.it.name, v.URL(), err)
	case string(got) != string(c.want):
		h.violationf("round %d: %s on %s after rot diverged from its clean bytes", num, c.it.name, v.URL())
	}
	after, err := nodeHealth(v.URL())
	if err != nil {
		h.violationf("round %d: reading %s health after rot: %v", num, v.URL(), err)
	} else if d := after.Store.Repaired - before.Store.Repaired; d != 1 {
		h.violationf("round %d: %s repaired %d blobs from replicas serving %s, want 1", num, v.URL(), d, c.it.name)
	}
}

// blobPath is where node n's store keeps the blob of key k.
func blobPath(n node, k expstore.Key) string {
	return filepath.Join(n.StoreDir(), string(k[:2]), string(k)+".json")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// drain waits for the healed fleet to converge: every node answering
// /healthz with an empty outbox and no journaled jobs still owed.
func (h *harness) drain(num int) {
	deadline := time.Now().Add(h.drainBudget)
	for {
		lagging := ""
		for _, n := range h.nodes {
			hh, err := nodeHealth(n.URL())
			switch {
			case err != nil:
				lagging = fmt.Sprintf("%s unreachable: %v", n.URL(), err)
			case hh.Cluster != nil && hh.Cluster.Outbox.Pending != 0:
				lagging = fmt.Sprintf("%s outbox pending %d (oldest %.1fs)",
					n.URL(), hh.Cluster.Outbox.Pending, hh.Cluster.Outbox.OldestAgeSec)
			case hh.Jobs != nil && hh.Jobs.Pending != 0:
				lagging = fmt.Sprintf("%s jobs pending %d", n.URL(), hh.Jobs.Pending)
			}
			if lagging != "" {
				break
			}
		}
		if lagging == "" {
			return
		}
		if time.Now().After(deadline) {
			h.violationf("round %d: fleet did not converge within %s: %s", num, h.drainBudget, lagging)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// finalVerify closes the loop on a clean fleet: baseline bytes still
// served, every fresh compute still readable, and the quarantine ledger
// balanced — exactly the planted rot, nothing more, nothing silently lost.
func (h *harness) finalVerify() {
	log.Printf("torture: final verification on the healed fleet")
	f := h.newFleet()
	for _, it := range suite() {
		got, err := h.execute(f, it)
		if err != nil {
			h.violationf("final: %s: %v", it.name, err)
			continue
		}
		if want := h.baseline[it.name]; string(got) != string(want) {
			h.violationf("final: %s diverged from clean baseline after torture", it.name)
		}
	}
	for _, fr := range h.fresh {
		got, err := h.execute(f, runWork(fr.name, fr.seed))
		if err != nil {
			h.violationf("final: re-reading %s: %v", fr.name, err)
			continue
		}
		if string(got) != string(fr.body) {
			h.violationf("final: %s changed between faulted compute and clean re-read", fr.name)
		}
	}
	// A last scrub everywhere turns any silently rotten blob into a
	// quarantine file the count below would catch.
	for _, n := range h.nodes {
		if err := scrubNode(n.URL()); err != nil {
			h.violationf("final: scrubbing %s: %v", n.URL(), err)
		}
	}
	corrupt := 0
	for _, n := range h.nodes {
		_ = filepath.WalkDir(n.StoreDir(), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".corrupt") {
				corrupt++
			}
			return nil
		})
	}
	if corrupt != h.planted {
		h.violationf("final: %d quarantined blobs across the fleet, planted %d — unaccounted corruption",
			corrupt, h.planted)
	} else {
		log.Printf("torture: quarantine ledger balanced: %d planted, %d quarantined", h.planted, corrupt)
	}
}

func (h *harness) newFleet() *client.Fleet { return h.fleetOf(h.urls) }

// fleetOf is a fleet client over the given nodes; over one node, every
// request goes straight to it.
func (h *harness) fleetOf(urls []string) *client.Fleet {
	f, err := client.NewFleet(urls, client.FleetOptions{
		Replication:    replication,
		AttemptTimeout: 2 * time.Second,
		RetryBudget:    8,
	})
	if err != nil {
		// The peer list is the harness's own; this cannot fail after build.
		panic(err)
	}
	f.Template.HTTPClient = tortureHTTP
	f.Template.Backoff = 100 * time.Millisecond
	return f
}

// execute runs one workload item under the per-request deadline budget;
// an error or overrun is the caller's invariant violation.
func (h *harness) execute(f *client.Fleet, it workItem) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), h.reqDeadline)
	defer cancel()
	start := time.Now()
	b, err := it.do(ctx, f)
	if err != nil {
		return nil, fmt.Errorf("%s failed after %s: %w", it.name, time.Since(start).Round(time.Millisecond), err)
	}
	return b, nil
}

func (h *harness) teardown() {
	for _, n := range h.nodes {
		if n != nil {
			_ = n.Disarm()
			_ = n.Kill()
		}
	}
	h.nodes = nil
}

// ---------------------------------------------------------------- workload

// workItem is one request in the round's fixed workload suite; do returns
// the bytes the byte-identical invariant compares, and key is the store key
// its result is kept under (empty for a fixed artifact, which is never
// stored).
type workItem struct {
	name string
	key  expstore.Key
	do   func(ctx context.Context, f *client.Fleet) ([]byte, error)
}

// suite is the workload driven through the fleet every round: three runs,
// a sweep, and a tables artifact — every op class the daemons serve.
func suite() []workItem {
	sweepReq := client.SweepRequest{
		Workloads: []string{"SLC"},
		SizesMB:   []int{2, 3},
		Policies:  []string{"MISS"},
		Refs:      tortureSweepRefs,
		Seed:      7,
	}
	items := []workItem{
		runWork("run-a", 1),
		runWork("run-b", 2),
		runWork("run-c", 3),
		{name: "sweep", key: jobKey(client.SweepJob(&sweepReq)), do: func(ctx context.Context, f *client.Fleet) ([]byte, error) {
			body, _, err := f.Sweep(ctx, sweepReq)
			return body, err
		}},
		{name: "tables-3.1", do: func(ctx context.Context, f *client.Fleet) ([]byte, error) {
			resp, err := f.Tables(ctx, "3.1", client.TablesQuery{Refs: tortureTableRefs, Paper: true})
			if err != nil {
				return nil, err
			}
			resp.Cached = false // where the answer came from is not part of it
			return json.Marshal(resp)
		}},
	}
	return items
}

func runWork(name string, seed uint64) workItem {
	req := client.RunRequest{Refs: tortureRunRefs, Seed: seed}
	return workItem{name: name, key: jobKey(client.RunJob(&req)), do: func(ctx context.Context, f *client.Fleet) ([]byte, error) {
		resp, err := f.Run(ctx, req)
		if err != nil {
			return nil, err
		}
		resp.Cached = false
		return json.Marshal(resp)
	}}
}

// jobKey is the store key of a request the harness builds itself; filing
// one fails only on a spec that cannot be encoded, which none of them is.
func jobKey(j client.Job, err error) expstore.Key {
	if err != nil {
		panic(err)
	}
	return j.Key
}

// ---------------------------------------------------------------- plumbing

// tortureHTTP is every harness request's transport. Keep-alives are off
// because nodes die and return on the same address mid-run: a pooled
// connection into a dead instance surfaces as an EOF that has nothing to
// do with the fault under test.
var tortureHTTP = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func nodeHealth(url string) (*client.Health, error) {
	c := client.New(url)
	c.HTTPClient = tortureHTTP
	c.Retries = -1
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return c.Health(ctx)
}

// scrubNode triggers the on-demand integrity pass on one node, which
// quarantines every rotten blob.
func scrubNode(url string) error {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cluster/scrub", nil)
	if err != nil {
		return err
	}
	resp, err := tortureHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrub: status %d", resp.StatusCode)
	}
	return nil
}

func waitReady(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		if _, err := nodeHealth(url); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s: %w", url, budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitListening waits until addr accepts TCP connections, for nodes whose
// armed fault plane swallows HTTP probes.
func waitListening(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting connections after %s: %w", addr, budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ---------------------------------------------------------------- in-proc

// inprocNode runs one fleet member inside the harness process: a real
// Server behind a real TCP listener, killable and restartable on the same
// address and store. Its network fault plane is a per-node injector wired
// into the server; the disk plane is the process-global seam, scoped to
// this node by store path.
type inprocNode struct {
	idx  int
	url  string
	addr string
	dir  string
	cfg  server.Config
	inj  *faultinject.NetInjector
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
}

func (h *harness) buildInproc(root string, verbose bool) error {
	// Peer URLs must be known before any node starts, so bind first.
	lns := make([]net.Listener, fleetSize)
	urls := make([]string, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	h.urls = urls
	for i := range urls {
		n := &inprocNode{
			idx:  i,
			url:  urls[i],
			addr: strings.TrimPrefix(urls[i], "http://"),
			dir:  filepath.Join(root, fmt.Sprintf("node%d", i)),
			inj:  faultinject.NewNet(),
		}
		store := n.StoreDir()
		if err := os.MkdirAll(store, 0o755); err != nil {
			return err
		}
		logf := func(string, ...any) {}
		if verbose {
			idx := i
			logf = func(format string, args ...any) {
				log.Printf("node%d: %s", idx, fmt.Sprintf(format, args...))
			}
		}
		n.cfg = server.Config{
			StoreDir:    store,
			MaxRun:      2,
			JobJournal:  filepath.Join(store, "jobs.journal"),
			Self:        n.url,
			Peers:       urls,
			Replication: replication,
			Outbox:      filepath.Join(store, "outbox.journal"),
			// Peer fetches must be bounded well under the client's 2 s
			// attempt timeout: a replica serving a store miss first asks
			// its peers for the blob, and a blackholed peer must not eat
			// the caller's whole attempt budget.
			PeerTimeout: 500 * time.Millisecond,
			NetFaults:   n.inj,
			Logf:        logf,
		}
		if err := n.start(lns[i]); err != nil {
			return err
		}
		h.nodes = append(h.nodes, n)
	}
	return nil
}

func (n *inprocNode) URL() string      { return n.url }
func (n *inprocNode) StoreDir() string { return filepath.Join(n.dir, "store") }

func (n *inprocNode) start(ln net.Listener) error {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", n.addr); err != nil {
			return fmt.Errorf("rebinding %s: %w", n.addr, err)
		}
	}
	srv, err := server.New(n.cfg)
	if err != nil {
		return err
	}
	if k := srv.RecoverJobs(); k > 0 {
		log.Printf("torture: node%d recovering %d journaled jobs", n.idx, k)
	}
	n.srv = srv
	n.hs = &http.Server{Handler: srv}
	n.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		// ErrServerClosed is the normal kill path; anything else surfaces
		// as the harness's requests failing.
		_ = hs.Serve(ln)
	}(n.hs, n.done)
	return nil
}

func (n *inprocNode) Arm(netSpec, diskSpec string) error {
	if netSpec != "" {
		rules, err := faultinject.ParseNetRules(netSpec)
		if err != nil {
			return err
		}
		n.inj.SetRules(rules...)
	}
	if diskSpec != "" {
		rules, err := faultinject.ParseDiskRules(diskSpec)
		if err != nil {
			return err
		}
		faultinject.ArmDisk(faultinject.NewDisk(rules...))
	}
	return nil
}

func (n *inprocNode) Disarm() error {
	n.inj.SetRules()
	faultinject.DisarmDisk()
	return nil
}

// Kill stands in for SIGKILL: listener and connections die mid-flight, no
// drain, and the journal file handles are released the way process death
// would release them, so Restart can reopen the same files.
func (n *inprocNode) Kill() error {
	if n.hs == nil {
		return nil
	}
	err := n.hs.Close()
	<-n.done
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	n.hs = nil
	return err
}

func (n *inprocNode) Restart() error {
	if n.hs != nil {
		return nil
	}
	if err := n.start(nil); err != nil {
		return err
	}
	return waitReady(n.url, 20*time.Second)
}

// ------------------------------------------------------------- subprocess

// procNode runs one fleet member as a real spurd process: kills are
// SIGKILL, restarts are respawns over the surviving store directory, and
// fault planes arm through spurd's -net-faults/-disk-faults flags (which
// costs the victim a respawn per armed round — more churn, more torture).
type procNode struct {
	idx   int
	bin   string
	url   string
	addr  string
	dir   string
	peers string
	logf  *os.File
	cmd   *exec.Cmd

	netSpec, diskSpec string // armed specs applied at next spawn
}

func (h *harness) buildSubprocess(root, bin string) error {
	// Reserve ports by binding and releasing; the spawned daemons rebind
	// them. The window between release and rebind is the harness's own.
	urls := make([]string, fleetSize)
	addrs := make([]string, fleetSize)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		_ = ln.Close()
	}
	h.urls = urls
	for i := range urls {
		n := &procNode{
			idx:   i,
			bin:   bin,
			url:   urls[i],
			addr:  addrs[i],
			dir:   filepath.Join(root, fmt.Sprintf("node%d", i)),
			peers: strings.Join(urls, ","),
		}
		if err := os.MkdirAll(n.dir, 0o755); err != nil {
			return err
		}
		lf, err := os.Create(filepath.Join(n.dir, "spurd.log"))
		if err != nil {
			return err
		}
		n.logf = lf
		if err := n.spawn(); err != nil {
			return err
		}
		h.nodes = append(h.nodes, n)
	}
	return nil
}

func (n *procNode) URL() string      { return n.url }
func (n *procNode) StoreDir() string { return filepath.Join(n.dir, "store") }

func (n *procNode) spawn() error {
	args := []string{
		"-addr", n.addr,
		"-store", n.StoreDir(),
		"-self", n.url,
		"-peers", n.peers,
		"-replicas", fmt.Sprint(replication),
		"-jobs", "2",
		"-scrub", "0",
		"-peer-timeout", "500ms", // bounded under the client attempt timeout; see buildInproc
	}
	if n.netSpec != "" {
		args = append(args, "-net-faults", n.netSpec)
	}
	if n.diskSpec != "" {
		args = append(args, "-disk-faults", n.diskSpec)
	}
	cmd := exec.Command(n.bin, args...)
	cmd.Stdout = n.logf
	cmd.Stderr = n.logf
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning node%d: %w", n.idx, err)
	}
	n.cmd = cmd
	// A node armed with network faults may blackhole its own /healthz —
	// that is the point — so readiness can only be probed at the TCP
	// level: spurd binds its listener last, after the store and journals
	// are open, so an accepted connection means the node is up.
	var err error
	if n.netSpec != "" {
		err = waitListening(n.addr, 20*time.Second)
	} else {
		err = waitReady(n.url, 20*time.Second)
	}
	if err != nil {
		return fmt.Errorf("node%d: %w", n.idx, err)
	}
	return nil
}

func (n *procNode) Arm(netSpec, diskSpec string) error {
	if netSpec == "" && diskSpec == "" {
		return nil
	}
	n.netSpec, n.diskSpec = netSpec, diskSpec
	_ = n.Kill()
	return n.spawn()
}

func (n *procNode) Disarm() error {
	if n.netSpec == "" && n.diskSpec == "" {
		return nil
	}
	n.netSpec, n.diskSpec = "", ""
	_ = n.Kill()
	return n.spawn()
}

// Kill delivers a real SIGKILL: no handlers run, journals and sockets are
// abandoned exactly as a crash abandons them.
func (n *procNode) Kill() error {
	if n.cmd == nil {
		return nil
	}
	err := n.cmd.Process.Kill()
	_ = n.cmd.Wait() // reap; "signal: killed" is the expected verdict
	n.cmd = nil
	return err
}

func (n *procNode) Restart() error {
	if n.cmd != nil {
		return nil
	}
	return n.spawn()
}

// ---------------------------------------------------------------- rng

// rng is a splitmix64 stream: tiny, seedable, and good enough to spread a
// torture schedule. The schedule must be a pure function of the seed, so
// the harness never touches math/rand's global state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
