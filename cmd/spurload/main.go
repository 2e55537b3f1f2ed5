// Command spurload drives a spurd fleet (or a single daemon) with a
// configurable mix of run/sweep/tables requests and reports what the
// service delivered: p50/p99/max latency, hit rate, error count, and
// throughput, overall and per request kind. The hit rate counts replies
// that ran no simulation (their cached flag): store hits, and every tables
// request, since the cheap artifacts the mix draws (2.1, 3.1, 3.2) are
// fixed artifacts the daemon renders once and never stores.
//
// The request schedule is generated up front from -seed, so two spurload
// invocations with the same flags issue byte-identical request sequences —
// handy for before/after comparisons and for the cluster kill drill, which
// replays the same load against a degraded fleet and expects the same
// answers.
//
// Usage:
//
//	spurload -peers http://127.0.0.1:7421 -n 200 -c 8
//	spurload -peers http://h1:7421,http://h2:7421,http://h3:7421 \
//	         -mix run=8,sweep=1,tables=1 -seeds 16 -refs 20000
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/client"
)

// request is one scheduled call: which endpoint, and which workload seed
// (the spread of seeds controls how often the store can answer from cache).
type request struct {
	kind string // "run", "sweep", "tables"
	seed uint64
	id   string // tables artifact id
}

// outcome is one completed call.
type outcome struct {
	kind    string
	latency time.Duration
	cached  bool
	err     error
}

func main() {
	peers := flag.String("peers", "http://127.0.0.1:7421", "comma-separated fleet base URLs")
	n := flag.Int("n", 100, "total requests to issue")
	c := flag.Int("c", 8, "concurrent workers")
	mix := flag.String("mix", "run=8,sweep=1,tables=1", "request mix as kind=weight[,kind=weight...]")
	refs := flag.Int64("refs", 20000, "reference budget per run/sweep cell/table")
	seeds := flag.Uint64("seeds", 8, "distinct workload seeds (fewer seeds = more store hits)")
	seed := flag.Int64("seed", 1, "schedule RNG seed (same flags + seed = identical request sequence)")
	replicas := flag.Int("replicas", 0, "fleet replication factor (0 = client default)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request deadline")
	flag.Parse()
	if *n < 1 || *c < 1 || *seeds < 1 {
		fmt.Fprintln(os.Stderr, "spurload: -n, -c and -seeds must be at least 1")
		os.Exit(2)
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	fleet, err := client.NewFleet(peerList, client.FleetOptions{Replication: *replicas})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spurload: %v\n", err)
		os.Exit(2)
	}

	schedule, err := buildSchedule(*mix, *n, *seeds, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spurload: %v\n", err)
		os.Exit(2)
	}

	outcomes := make([]outcome, len(schedule))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = issue(fleet, schedule[i], *refs, *timeout)
			}
		}()
	}
	for i := range schedule {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	report(outcomes, wall, len(peerList))
	for _, o := range outcomes {
		if o.err != nil {
			os.Exit(1)
		}
	}
}

// buildSchedule expands the mix weights into a deterministic shuffled
// request sequence.
func buildSchedule(mix string, n int, seeds uint64, seed int64) ([]request, error) {
	type entry struct {
		kind   string
		weight int
	}
	var entries []entry
	total := 0
	for _, part := range strings.Split(mix, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -mix element %q (want kind=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", kv[1])
		}
		switch kv[0] {
		case "run", "sweep", "tables":
		default:
			return nil, fmt.Errorf("unknown -mix kind %q (want run, sweep or tables)", kv[0])
		}
		entries = append(entries, entry{kv[0], w})
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix %q has zero total weight", mix)
	}
	rng := rand.New(rand.NewSource(seed))
	// Cheap artifacts only: the big tables would dwarf every other request
	// at load-test reference budgets. These three are fixed artifacts, so
	// every tables request counts as a hit.
	tableIDs := []string{"2.1", "3.1", "3.2"}
	schedule := make([]request, n)
	for i := range schedule {
		pick := rng.Intn(total)
		kind := ""
		for _, e := range entries {
			if pick < e.weight {
				kind = e.kind
				break
			}
			pick -= e.weight
		}
		schedule[i] = request{
			kind: kind,
			seed: 1 + uint64(rng.Int63n(int64(seeds))),
			id:   tableIDs[rng.Intn(len(tableIDs))],
		}
	}
	return schedule, nil
}

// issue performs one scheduled request and records how it went.
func issue(f *client.Fleet, r request, refs int64, timeout time.Duration) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	o := outcome{kind: r.kind}
	switch r.kind {
	case "run":
		resp, err := f.Run(ctx, client.RunRequest{Workload: "slc", Refs: refs, Seed: r.seed})
		if err == nil {
			o.cached = resp.Cached
		}
		o.err = err
	case "sweep":
		_, meta, err := f.Sweep(ctx, client.SweepRequest{
			Workloads: []string{"slc"},
			SizesMB:   []int{2, 4},
			Policies:  []string{"MISS"},
			Refs:      refs,
			Seed:      r.seed,
		})
		if err == nil {
			o.cached = meta.Cached
		}
		o.err = err
	case "tables":
		resp, err := f.Tables(ctx, r.id, client.TablesQuery{Refs: refs, Seed: r.seed, Paper: true})
		if err == nil {
			o.cached = resp.Cached
		}
		o.err = err
	}
	o.latency = time.Since(start)
	return o
}

// percentile reads the q-th quantile from an ascending latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func report(outcomes []outcome, wall time.Duration, peers int) {
	kinds := []string{"run", "sweep", "tables"}
	byKind := map[string][]outcome{}
	for _, o := range outcomes {
		byKind[o.kind] = append(byKind[o.kind], o)
	}
	fmt.Printf("spurload: %d requests over %d peers in %s (%.1f req/s)\n",
		len(outcomes), peers, wall.Round(time.Millisecond), float64(len(outcomes))/wall.Seconds())
	fmt.Printf("%-8s %6s %6s %8s %10s %10s %10s\n", "kind", "n", "errs", "hit%", "p50", "p99", "max")
	rows := append([]string{"all"}, kinds...)
	for _, kind := range rows {
		group := outcomes
		if kind != "all" {
			group = byKind[kind]
		}
		if len(group) == 0 {
			continue
		}
		var lats []time.Duration
		errs, hits := 0, 0
		for _, o := range group {
			if o.err != nil {
				errs++
				continue
			}
			lats = append(lats, o.latency)
			if o.cached {
				hits++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		hitRate := 0.0
		if len(lats) > 0 {
			hitRate = 100 * float64(hits) / float64(len(lats))
		}
		var max time.Duration
		if len(lats) > 0 {
			max = lats[len(lats)-1]
		}
		fmt.Printf("%-8s %6d %6d %7.1f%% %10s %10s %10s\n",
			kind, len(group), errs, hitRate,
			percentile(lats, 0.50).Round(time.Microsecond),
			percentile(lats, 0.99).Round(time.Microsecond),
			max.Round(time.Microsecond))
	}
	for _, o := range outcomes {
		if o.err != nil {
			fmt.Printf("spurload: error: %v\n", o.err)
			break // one sample is enough; the exit code carries the rest
		}
	}
}
