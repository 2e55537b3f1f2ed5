package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	spur "repro"
	"repro/internal/expstore"
	"repro/internal/server"
	"repro/pkg/client"
)

// requestDeadline bounds one request. A request that fails counts at this
// latency, so a failure misses any latency limit.
const requestDeadline = time.Minute

// request is one scheduled service call.
type request struct {
	kind string // "run", "sweep" or "tables"
	seed uint64 // the experiment's workload seed
	id   string // the tables artifact
}

func (r request) key() string {
	if r.kind == "tables" {
		return fmt.Sprintf("tables/%s/seed=%d", r.id, r.seed)
	}
	return fmt.Sprintf("%s/seed=%d", r.kind, r.seed)
}

// schedule is spurload's request schedule for its default mix, run=8,
// sweep=1, tables=1, over the cheap tables 2.1, 3.1 and 3.2: n requests,
// each with a kind drawn by weight, an experiment seed drawn uniformly from
// 1..seeds and a tables artifact, in the order spurload draws them from one
// generator seeded with seed. `spurload -n <n> -seeds <seeds> -seed <seed>`
// therefore sends the same sequence. Which requests repeat a key, and so
// can hit the store, is left to the draws: with 3000 requests over 600
// seeds about 63% do.
func schedule(seed uint64, n, seeds int) []request {
	rng := rand.New(rand.NewSource(int64(seed)))
	ids := []string{"2.1", "3.1", "3.2"}
	out := make([]request, n)
	for i := range out {
		kind := "run"
		switch pick := rng.Intn(10); {
		case pick == 8:
			kind = "sweep"
		case pick == 9:
			kind = "tables"
		}
		out[i] = request{kind: kind, seed: 1 + uint64(rng.Int63n(int64(seeds))), id: ids[rng.Intn(len(ids))]}
	}
	return out
}

type node struct {
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
}

// serveStage is a fresh in-process spurd fleet on loopback TCP, each node
// with a disk store and a jobs journal, and in a cluster an outbox journal.
type serveStage struct {
	sz    size
	sched []request
	dir   string
	urls  []string
	cfgs  []server.Config
	lns   []net.Listener // bound by prepare; the first len(nodes) serve a node
	nodes []*node
	conns *http.Transport   // the benchmark's connections to the fleet
	rt    http.RoundTripper // what the fleet client sends through; conns unless a test wraps it
}

func prepareServe(nodes int) func(size, uint64) (stage, error) {
	return func(sz size, seed uint64) (stage, error) {
		// As separate processes, each spurd would run goroutines on all of
		// the host's CPUs. In one process the nodes share one scheduler, so
		// it gets the processors the nodes would have together. With only
		// the CPU count, a request sent right after a miss waited for a
		// processor while the nodes finished the work the miss left behind
		// (journal appends, replication): serve-3node's p50 more than
		// doubled, and its spread across seeds was 0.3 to 0.46.
		runtime.GOMAXPROCS(nodes * runtime.NumCPU())
		conns := http.DefaultTransport.(*http.Transport).Clone()
		s := &serveStage{sz: sz, sched: schedule(seed, sz.Requests, sz.Seeds), conns: conns, rt: conns}
		if err := s.provision(nodes); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

// provision binds the nodes' listeners and creates their data directories
// by opening and closing each node once, so the timed start opens journals
// that already exist, as a restarted daemon does. Creating a journal costs
// two fsyncs, and fsync latency on the host the benchmark was sized on
// drifted twofold within minutes: with the journals created in the timed
// set-up, serve-3node's setup_s medians of two ledger runs differed by 34%.
func (s *serveStage) provision(n int) error {
	var err error
	if s.dir, err = os.MkdirTemp("", "spurbench-serve-"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.lns = append(s.lns, ln)
		s.urls = append(s.urls, "http://"+ln.Addr().String())
	}
	for i := range s.lns {
		d := filepath.Join(s.dir, fmt.Sprintf("node%d", i))
		cfg := server.Config{StoreDir: filepath.Join(d, "store"), JobJournal: filepath.Join(d, "jobs.journal")}
		if n > 1 {
			cfg.Self, cfg.Peers, cfg.Replication = s.urls[i], s.urls, 2
			cfg.Outbox = filepath.Join(d, "outbox.journal")
		}
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		if err := srv.Close(); err != nil {
			return err
		}
		s.cfgs = append(s.cfgs, cfg)
	}
	return nil
}

// start opens every node, serves it, and waits until each reports healthy.
func (s *serveStage) start() (time.Duration, error) {
	t0 := time.Now()
	for i, cfg := range s.cfgs {
		srv, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		nd := &node{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{})}
		s.nodes = append(s.nodes, nd)
		ln := s.lns[i]
		go func() {
			defer close(nd.done)
			_ = nd.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, u := range s.urls {
		for {
			h, err := s.client(u).Health(ctx)
			if err == nil && h.Status == "ok" {
				break
			}
			if ctx.Err() != nil {
				return 0, fmt.Errorf("node %s never became healthy: %v", u, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return time.Since(t0), nil
}

func (s *serveStage) client(url string) *client.Client {
	return &client.Client{BaseURL: url, HTTPClient: &http.Client{Transport: s.conns}}
}

func (s *serveStage) close() {
	for _, nd := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = nd.hs.Shutdown(ctx) // on timeout the listener is closed anyway
		cancel()
		<-nd.done
		_ = nd.srv.Close() // journals are scratch; the directory goes next
	}
	for _, ln := range s.lns[len(s.nodes):] {
		_ = ln.Close() // never served; nothing to drain
	}
	s.conns.CloseIdleConnections()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // a leftover temp dir costs disk, not correctness
	}
}

// outcome is one completed request. reply is the decoded response, or the
// sweep's CSV.
type outcome struct {
	lat    time.Duration
	cached bool
	reply  any
	err    error
}

// body is the canonical reply: the JSON response with its cached flag
// cleared, or the sweep's CSV. It is computed after the pass, so encoding it
// neither counts in a request's latency nor delays the next request.
func (o outcome) body() ([]byte, error) {
	if o.err != nil {
		return nil, o.err
	}
	switch v := o.reply.(type) {
	case *client.RunResponse:
		v.Cached = false
		return json.Marshal(v)
	case *client.TablesResponse:
		v.Cached = false
		return json.Marshal(v)
	}
	return o.reply.([]byte), nil
}

type spanKey struct{}

// countingRT counts every HTTP attempt the fleet client makes (retries and
// hedges included) and, in a traced pass, records each as a child span of
// its request.
type countingRT struct {
	base http.RoundTripper
	tr   *tracer
	n    atomic.Int64
}

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	if c.tr == nil {
		return c.base.RoundTrip(r)
	}
	parent, ok := r.Context().Value(spanKey{}).(int)
	if !ok {
		parent = -1
	}
	start := c.tr.now()
	resp, err := c.base.RoundTrip(r)
	c.tr.add("attempt", parent, start, c.tr.now(), 0)
	return resp, err
}

// run sends the schedule through client.Fleet from a closed loop of
// workers clients: each sends its next request only once its previous
// reply arrived, as spurd's callers (sweep and tables -remote, spurload) do.
func (s *serveStage) run(tr *tracer) (opResult, error) {
	rt := &countingRT{base: s.rt, tr: tr}
	fl, err := client.NewFleet(s.urls, client.FleetOptions{})
	if err != nil {
		return opResult{}, err
	}
	fl.Template.HTTPClient = &http.Client{Transport: rt}

	// A traced cluster pass samples the replication outbox every 100 ms.
	var pendingMax int
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		if tr == nil || len(s.urls) == 1 {
			return
		}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if p, err := s.pending(); err == nil {
					pendingMax = max(pendingMax, p)
				}
			}
		}
	}()

	outs := make([]outcome, len(s.sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(outs); i = int(next.Add(1)) - 1 {
				outs[i] = s.issue(fl, s.sched[i], tr)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	attempts := rt.n.Load()
	close(stop)
	<-sampled

	op := opResult{wall: wall}
	for i, o := range outs {
		body, err := o.body()
		op.records = append(op.records, newRecord(s.sched[i].key(), body, err))
		lat := o.lat
		if err != nil {
			lat = requestDeadline
		}
		op.latMS = append(op.latMS, 1000*lat.Seconds())
	}
	if tr != nil {
		op.layers, err = s.layers(fl, outs, attempts, pendingMax)
	}
	return op, err
}

func (s *serveStage) issue(fl *client.Fleet, r request, tr *tracer) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	id := -1
	if tr != nil {
		id = tr.open("request", -1)
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	start := time.Now()
	var o outcome
	switch r.kind {
	case "run":
		resp, err := fl.Run(ctx, client.RunRequest{Workload: client.WorkloadSLC, Refs: s.sz.Refs, Seed: r.seed})
		if err == nil && resp.Failure != nil {
			err = fmt.Errorf("run %s quarantined: %s", r.key(), resp.Failure.Reason)
		}
		if o.err = err; err == nil {
			o.cached, o.reply = resp.Cached, resp
		}
	case "sweep":
		csv, meta, err := fl.Sweep(ctx, client.SweepRequest{
			Workloads: []string{"slc"}, SizesMB: []int{2, 4}, Policies: []string{"MISS"},
			Refs: s.sz.Refs, Seed: r.seed,
		})
		o.cached, o.reply, o.err = meta.Cached, csv, err
	case "tables":
		resp, err := fl.Tables(ctx, r.id, client.TablesQuery{Refs: s.sz.Refs, Seed: r.seed, Paper: true})
		if o.err = err; err == nil {
			o.cached, o.reply = resp.Cached, resp
		}
	}
	o.lat = time.Since(start)
	if tr != nil {
		var cached int64
		if o.cached {
			cached = 1
		}
		tr.close(id, cached)
	}
	return o
}

// pending sums the nodes' replication outbox depths.
func (s *serveStage) pending() (int, error) {
	hs, err := s.health()
	total := 0
	for _, h := range hs {
		total += h.Cluster.Outbox.Pending
	}
	return total, err
}

func (s *serveStage) health() ([]*client.Health, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var hs []*client.Health
	for _, u := range s.urls {
		h, err := s.client(u).Health(ctx)
		if err != nil {
			return hs, err
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// layers reads the service layers after a traced pass: the fleet client's
// attempts and breakers, the store's hit ratio and the queue's rejections
// from /healthz, how long the replication outbox takes to drain, and the
// round trip of a cached GET sent to the key's owner and, in a cluster,
// through a node that must proxy it. It also times the journal appends and
// store calls every node makes.
func (s *serveStage) layers(fl *client.Fleet, outs []outcome, attempts int64, pendingMax int) (map[string]float64, error) {
	m := map[string]float64{"client.attempts_per_req": float64(attempts) / float64(len(outs))}
	var miss []float64
	for _, o := range outs {
		if o.err == nil && !o.cached {
			miss = append(miss, 1000*o.lat.Seconds())
		}
	}
	sort.Float64s(miss)
	m["server.miss_ms_p50"] = percentile(miss, 0.5)
	open := 0
	for _, st := range fl.BreakerStates() {
		if st == "open" {
			open++
		}
	}
	m["client.breakers_open"] = float64(open)

	cluster := len(s.urls) > 1
	if cluster {
		t0 := time.Now()
		for {
			p, err := s.pending()
			if err != nil {
				return nil, err
			}
			if p == 0 {
				break
			}
			pendingMax = max(pendingMax, p)
			if time.Since(t0) > 30*time.Second {
				return nil, fmt.Errorf("replication outbox still holds %d intents after 30s", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
		m["cluster.outbox_drain_s"] = time.Since(t0).Seconds()
		m["cluster.outbox_pending_max"] = float64(pendingMax)
	}
	hs, err := s.health()
	if err != nil {
		return nil, err
	}
	var hits, lookups, rejected, repaired uint64
	for _, h := range hs {
		hits += h.Store.Hits()
		lookups += h.Store.Hits() + h.Store.Misses
		rejected += h.Queue.Rejected
		repaired += h.Store.Repaired
	}
	m["expstore.hit_ratio"] = float64(hits) / float64(lookups)
	m["server.rejected"] = float64(rejected)
	if cluster {
		m["cluster.repaired"] = float64(repaired)
	}

	// One stored key, fetched repeatedly from its owner and, in a cluster,
	// from the node outside its replica set, which proxies to the owner.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const id = "2.1"
	q := client.TablesQuery{Refs: s.sz.Refs, Seed: 1, Paper: true}
	if _, err := fl.Tables(ctx, id, q); err != nil {
		return nil, err
	}
	key, err := expstore.KeyOf(spur.Version, "tables/"+id, q)
	if err != nil {
		return nil, err
	}
	replicas := fl.Replicas(string(key))
	owner, err := s.getP50(ctx, replicas[0], id, q)
	if err != nil {
		return nil, err
	}
	m["server.hit_rtt_ms_p50"] = owner
	for _, u := range s.urls {
		if cluster && !slices.Contains(replicas, u) {
			via, err := s.getP50(ctx, u, id, q)
			if err != nil {
				return nil, err
			}
			m["cluster.proxy_hop_ms_p50"] = via - owner
			break
		}
	}
	micro, err := microLayers()
	maps.Copy(m, micro)
	return m, err
}

// getP50 is the median round trip of 100 sequential cached GETs to url.
func (s *serveStage) getP50(ctx context.Context, url, id string, q client.TablesQuery) (float64, error) {
	c := s.client(url)
	lat := make([]float64, 0, 100)
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		resp, err := c.Tables(ctx, id, q)
		if err != nil {
			return 0, err
		}
		if !resp.Cached {
			return 0, fmt.Errorf("tables/%s via %s was not served from the store", id, url)
		}
		lat = append(lat, 1000*time.Since(t0).Seconds())
	}
	sort.Float64s(lat)
	return percentile(lat, 0.5), nil
}
