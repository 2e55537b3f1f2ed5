// Command spurd serves the repository's experiments over HTTP: a daemon
// with a content-addressed result store, an in-flight-deduping bounded job
// queue, and 429 + Retry-After load shedding. Deterministic runs make every
// result memoizable, so a table or sweep is simulated once and then served
// from the store for as long as the code version stands.
//
// Usage:
//
//	spurd                              # serve on 127.0.0.1:7421, store in ./spurd-store
//	spurd -addr 127.0.0.1:0            # any free port (the chosen address is logged)
//	spurd -store /var/cache/spur -jobs 8 -queue 64
//
// Endpoints: POST /v1/run, POST /v1/sweep, GET /v1/tables/{id},
// GET /healthz. SIGTERM/SIGINT drain gracefully: the listener closes,
// in-flight requests finish, then the process exits.
//
// The daemon is crash-only: accepted jobs are journaled (fsynced) before
// they compute, so a spurd killed mid-job restarts, replays the journal,
// and recomputes whatever it still owes; a background scrubber verifies
// every stored blob against its embedded hash and quarantines bit rot.
// -jobs-journal and -scrub control both (journaling defaults on whenever
// the store is on disk).
//
// Fleet mode: give every node the same -peers list plus its own -self URL
// and the daemons shard the result store over a consistent-hash ring with
// -replicas copies of each blob. A node serves any request from its store,
// then the key's replicas, then a compute, so a blob lost to a crash or
// quarantined by the scrubber comes back on its next request; computed
// results replicate through a durable outbox (-outbox), and GET /v1/cluster
// reports membership and health.
//
//	spurd -addr 127.0.0.1:7421 -self http://127.0.0.1:7421 \
//	      -peers http://127.0.0.1:7421,http://127.0.0.1:7422,http://127.0.0.1:7423
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7421", "listen address (port 0 picks a free port)")
	store := flag.String("store", "spurd-store", "result-store directory (empty = memory only)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrently executing jobs")
	queue := flag.Int("queue", 0, "waiting jobs before load shedding (0 = 4x -jobs, negative = none)")
	par := flag.Int("par", 0, "per-sweep worker bound (0 = -jobs)")
	drain := flag.Duration("drain", time.Minute, "graceful-shutdown budget")
	jobsJournal := flag.String("jobs-journal", "auto", `durable job journal path ("auto" = <store>/jobs.journal, "off" = none)`)
	scrub := flag.Duration("scrub", 5*time.Minute, "store integrity-scrub cadence (0 = never)")
	self := flag.String("self", "", "this node's base URL as it appears in -peers (empty = standalone)")
	peers := flag.String("peers", "", "comma-separated fleet base URLs incl. -self (empty = standalone)")
	replicas := flag.Int("replicas", 0, "copies of each result across the fleet (0 = 2, clamped to peers)")
	outbox := flag.String("outbox", "auto", `durable replication outbox path ("auto" = <store>/outbox.journal, "off" = none)`)
	peerTimeout := flag.Duration("peer-timeout", 0, "per-peer replication/probe timeout (0 = default)")
	netFaults := flag.String("net-faults", "", "deterministic network fault spec (drills only)")
	diskFaults := flag.String("disk-faults", "", "deterministic disk fault spec (drills only)")
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "spurd: -jobs must be at least 1")
		os.Exit(2)
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if (len(peerList) > 0) != (*self != "") {
		fmt.Fprintln(os.Stderr, "spurd: -self and -peers must be set together")
		os.Exit(2)
	}
	// The torture harness arms its fault planes through these flags; a
	// daemon started without them runs fault-free.
	var netInj *faultinject.NetInjector
	if *netFaults != "" {
		rules, err := faultinject.ParseNetRules(*netFaults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spurd: %v\n", err)
			os.Exit(2)
		}
		netInj = faultinject.NewNet(rules...)
	}
	if *diskFaults != "" {
		rules, err := faultinject.ParseDiskRules(*diskFaults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spurd: %v\n", err)
			os.Exit(2)
		}
		faultinject.ArmDisk(faultinject.NewDisk(rules...))
	}
	journalPath := ""
	switch *jobsJournal {
	case "auto":
		if *store != "" {
			journalPath = filepath.Join(*store, "jobs.journal")
		}
	case "off", "":
	default:
		journalPath = *jobsJournal
	}
	outboxPath := ""
	if len(peerList) > 0 {
		switch *outbox {
		case "auto":
			if *store != "" {
				outboxPath = filepath.Join(*store, "outbox.journal")
			}
		case "off", "":
		default:
			outboxPath = *outbox
		}
	}
	for _, p := range []string{journalPath, outboxPath} {
		if p == "" {
			continue
		}
		// The journals usually live inside the store directory, which the
		// server only creates later; journal.Create needs the parent now.
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "spurd: %v\n", err)
			os.Exit(1)
		}
	}
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	s, err := server.New(server.Config{
		StoreDir:    *store,
		MaxRun:      *jobs,
		MaxQueue:    *queue,
		Parallel:    *par,
		JobJournal:  journalPath,
		ScrubEvery:  *scrub,
		Self:        *self,
		Peers:       peerList,
		Replication: *replicas,
		Outbox:      outboxPath,
		PeerTimeout: *peerTimeout,
		NetFaults:   netInj,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatalf("spurd: %v", err)
	}
	if n := s.RecoverJobs(); n > 0 {
		log.Printf("spurd: recovering %d journaled jobs from a previous process", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spurd: %v", err)
	}
	// The first log line carries the resolved address so scripts using
	// port 0 can discover where we landed.
	log.Printf("spurd: listening on http://%s (store %q, %d jobs, queue %d)",
		ln.Addr(), *store, *jobs, *queue)
	if len(peerList) > 0 {
		log.Printf("spurd: fleet member %s of %d peers", *self, len(peerList))
	}
	if *netFaults != "" {
		log.Printf("spurd: network fault plane armed: %s", *netFaults)
	}
	if faultinject.ArmedDisk() != nil {
		log.Printf("spurd: disk fault plane armed")
	}

	srv := &http.Server{Handler: s}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-done:
		log.Fatalf("spurd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("spurd: draining (in-flight requests get %s)...", *drain)
	s.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("spurd: drain: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("spurd: %v", err)
	}
	// Background job recovery keeps its share of the drain budget; whatever
	// does not finish stays journaled for the next process.
	if err := s.WaitJobs(shutdownCtx); err != nil {
		log.Printf("spurd: drain: job recovery still running; it stays journaled for the next start")
	}
	if err := s.Close(); err != nil {
		log.Printf("spurd: closing job journal: %v", err)
	}
	st := s.Store().Stats()
	log.Printf("spurd: drained cleanly (store: %d mem hits, %d disk hits, %d misses, %d evictions)",
		st.MemHits, st.DiskHits, st.Misses, st.Evictions)
}
