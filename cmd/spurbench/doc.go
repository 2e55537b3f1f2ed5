// Command spurbench is the repository's benchmark: it measures the
// simulator's host time and spurd's latency on four named workloads, checks
// that every output is correct, and in a separate traced run attributes the
// time to the layers it passes through, the way the paper multiplies event
// frequencies (Table 3.3) by per-event costs (Table 3.2). BENCHMARK.json
// declares the workloads, the metrics and each end-to-end metric's
// regression bound; every performance claim in the repository is judged by
// these names.
//
// Run it from the repository root through its wrapper, which builds it in
// the checkout:
//
//	bash cmd/spurbench/run.sh --workload table41-exact --seed 1 --seconds 25 --trace 0
//	bash cmd/spurbench/run.sh --workload serve-3node --seed 1 --trace 1 --out results/x
//	bash cmd/spurbench/run.sh agree cmd/spurbench/results/run1 cmd/spurbench/results/run2
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). --out also writes a report file holding the host fingerprint
// (CPU model, nproc, GOMAXPROCS, Go version, vcs.revision and vcs.modified),
// the seed, the sample count behind each metric and the output digest.
// agree prints each side's median, quartiles and spread (quartile distance
// over median) per (workload, metric) over two directories of report files.
// It exits 1 when a report failed its checks, when an end-to-end metric's
// spread on either side exceeds the metric's bound (unresolved), or when two
// medians differ by more than the bound; setup_s is compared by its medians
// only. cmd/spurbench/results/run1 and run2 are two such ledger entries,
// seeds 1 to 10 of every workload plus a traced seed-1 run each, measured on
// the same host and code one workload after another, the two entries
// alternating which runs a seed first, so that both see the same host.
//
// # Its own module
//
// The benchmark is a module of its own (go.mod here, with repro replaced by
// the checkout it sits in), so that it builds from its own directory and the
// same files can measure every later commit. The root module's go build and
// go test therefore skip it; its tests run with
//
//	go -C cmd/spurbench test ./...
//
// The root's `go run ./cmd/spurlint ./...` and `gofmt -l .` walk directories,
// not modules, so they do check it. A later change that breaks it fails the
// benchmark run itself: the build fails, or an output no longer matches.
//
// # Workloads
//
// Each workload runs in its own process from its seed, with at most two
// workers (the CPU count of the host it was sized on):
//
//   - table41-exact: spur.Table41 with 6M references per run, one
//     repetition, Parallel 2: 18 cells, 3.5 to 4.5 s per operation. It is
//     the paper's headline experiment on the exact path; about 40% of its
//     time is workload generation and the rest the simulation engine, with
//     no store, HTTP or journal. 6M references fill the 5 and 6 MB memories,
//     so the page daemon clears reference bits and the three policies
//     differ; at 2M no cell ever reclaimed a page. Common-random-number
//     fan-out and a single run loop would do most of their work here.
//   - sweep-sampled: spur.MemorySweepSampled over both workloads, 5/6/8 MB
//     and the three reference-bit policies, 11M references per stream,
//     3.5 to 4.5 s per operation. It uses the same simulator layers
//     differently: generation runs once per workload and feeds 9 variant
//     machines, and most time goes to functional warming. Fan-out already
//     exists here, so an exact-path fan-out change should leave it
//     unchanged. It runs without a snapshot journal, as sweep -sample and
//     spurd do unless asked to checkpoint: journaled, its 25 MB of fsynced
//     snapshots per operation tied its time to the host's disk, and its
//     median moved 32% between two ledger runs while Table 4.1's moved 1%.
//   - serve-1node: one in-process spurd (disk store, jobs journal) on
//     loopback, driven through client.Fleet with spurload's schedule:
//     3000 requests of the mix run=8, sweep=1, tables=1 over tables 2.1,
//     3.1 and 3.2, each with an experiment seed drawn at random from 600,
//     200000 references, 9 to 13 s per pass. About 63% of the requests
//     repeat a key and hit the store, so p50 sits on the hit path and p99
//     on compute-on-miss. There is no fleet machinery: it is the control
//     for changes to the cluster layer.
//   - serve-3node: the same schedule against 3 nodes with replication 2 and
//     outbox journals. It adds the ring, proxying, replication, and the
//     client's and servers' breakers and hedging; its difference from
//     serve-1node is the cost of the fleet. The nodes share the process's
//     scheduler, which gets three times the CPU count, the processors three
//     spurd processes would have.
//
// The service workloads use a closed loop of 2 clients, each sending its
// next request only after its previous reply arrived, because spurd's
// callers (sweep and tables -remote, spurload) each wait for their reply.
// Each pass starts on empty stores, so every pass of a seed sends the same
// hits and misses.
//
// # End-to-end metrics
//
// A run times thirty set-ups, then runs operations, each on a fresh set-up,
// while the next one, taking the median time so far, still ends within
// --seconds. An operation is what the workload's user submits and waits
// for: one experiment call for the simulator workloads, one pass of the
// request schedule for the service workloads.
//
//   - setup_s: median set-up time. For the simulator workloads it is the
//     time from starting a fresh spurbench process until it has built the
//     first cell's machine and workload script, package initialization
//     included. For the service workloads it opens the nodes on data
//     directories provisioned untimed, whose journals already exist as on a
//     restart, serves them and waits for /healthz. Each set-up is timed
//     after a garbage collection and a file-system flush.
//   - wall_s: median operation time.
//   - p50_ms, p99_ms: nearest-rank percentiles of the requests of every
//     pass, a failed one counting at the one-minute request deadline, for
//     the service workloads; of the experiment calls for the simulator
//     workloads. p99_ms falls back to the highest percentile that has ten
//     samples beyond it, and at most to the median, so with a run's few
//     experiment calls both restate wall_s.
//   - throughput_rps: requests answered per second of operation time, an
//     experiment call counting as one request.
//   - peak_rss_mb: the process's peak resident set.
//
// Two figures are checked but are not end-to-end metrics, because a metric
// must be reported by every workload and must never read 0. The failed
// share is the result's failed over attempted; it is 0 on a correct run,
// and a run with a failure reports correct=false. paper_mae_pp, the mean
// absolute difference in percentage points between measured and published
// page-ins relative to MISS over Table 4.1's twelve non-MISS cells, exists
// only for table41-exact; each report records it, and any change to the
// simulator's output changes the committed seed-1 digest first.
//
// BENCHMARK.json bounds the timings at 0.25 of the parent's median, the
// largest bound allowed, and peak_rss_mb at 0.1. On the 2-vCPU host the
// benchmark was sized on, the speed of a CPU-bound loop drifts by 10 to 30%
// over minutes, with CPU time moving as much as wall time, and medians of
// 15 s windows of such a loop have a quartile distance of 0.10 to 0.16 of
// their median at any window length from 5 to 45 s. Longer runs do not
// narrow it, so the timings' spreads stay above a third of their bound.
//
// Every output is checked. An operation fails when it errors, returns a
// quarantined run, or produces bytes for a key that differ from the first
// bytes seen for that key in the run: the simulator drivers' rows as JSON,
// from which RenderTable41 and SampledSweepCSV render, and each service
// reply with its cached flag cleared. The output digest is the SHA-256 of
// the sorted (key, output SHA-256) list; for seed 1 it must equal
// testdata/digests.json, which records one digest for both service
// workloads because one and three nodes must answer identically.
//
// # Traced run
//
// --trace 1 runs the workload untraced, traced, and untraced again, and
// derives the per-layer metrics from spans (name, id, parent, start, end,
// work done) recorded around calls into each module's public functions from
// this package's own code. Spans stay in memory and are written as JSON
// lines to the temporary directory when the run ends. A span's self time is
// its duration minus the part its children cover. The traced simulator
// operations rebuild the drivers from public calls: Table 4.1 as
// spur.NewMachine, workload.NewScript and a 4096-reference loop of
// NextBatch and AccessBatch per job, in the driver's shuffled job order;
// the sampled sweep as BuildProfile, BuildPlan, Measure and Estimate per
// group. trace.faithful is 1 when the rebuild's rows are byte-identical to
// the driver's, or for the service workloads when the traced pass's replies
// are byte-identical to the untraced pass's; it reads 0 instead of failing
// the run once a driver's internals change. trace.overhead_frac compares
// the traced operation with the second untraced one.
//
// Every traced run reports every layer metric. Each workload measures the
// layers it passes through where the benchmark can observe them, from its
// own operations at its own size, and reports 0 for the others; the perLayer
// catalogue in main.go says which workloads measure which metric, and a
// traced run that measures a different set fails. The table lists them:
//
//	layer metric                    measured by (workloads)                      should move                      little effect on
//	workload.gen_ns_per_ref         NextBatch spans in the Table 4.1 rebuild     wall_s @ table41-exact           serve-*
//	                                (table41-exact); in the TouchBatch pass
//	                                (sweep-sampled)
//	workload.gen_share              same, over job time (table41-exact)          wall_s @ table41-exact           serve-*
//	core.access_ns_per_ref          AccessBatch spans, same loop (table41-exact) wall_s @ table41-exact           serve-* p50_ms
//	core.touch_ns_per_ref           TouchBatch over the first group's stream     wall_s @ sweep-sampled           table41-exact
//	                                on its first variant (sweep-sampled)
//	core.*_per_kref, *_per_mref     result event counts per reference; they      explain core.access_ns_per_ref   (a host-time-only change must
//	                                repeat exactly per seed (table41-exact)                                       leave them identical)
//	machine.run_ns_per_ref,         job spans; 1 - (gen + access) / job          wall_s @ table41-exact           serve-*
//	  machine.loop_share            (table41-exact)
//	parallel.jobs,                  the driver's Progress callbacks; job or      wall_s @ both simulator          serve-*
//	  parallel.tail_idle_s,         group spans / (wall x 2) (table41-exact,     workloads (sweep-sampled has
//	  parallel.busy_frac            sweep-sampled)                               2 groups, so it shows imbalance)
//	sample.profile_s, plan_s,       spans around BuildProfile, BuildPlan,        wall_s @ sweep-sampled           table41-exact
//	  measure_s, estimate_s,        Measure, Estimate per group (sweep-sampled)
//	  detailed_refs
//	journal.append_us_p50/p99       Writer.Append at 256 B and 64 KiB (serve-*)  p99_ms @ serve-*                 simulator workloads
//	expstore.get_mem_us_p50,        Store.Get warm and after reopening,          p50_ms (get), p99_ms (put)       simulator workloads
//	  get_disk_us_p50, put_us_p50,  Store.Put; hits over lookups from /healthz   @ serve-*
//	  hit_ratio                     (serve-*)
//	server.hit_rtt_ms_p50,          cached GETs to the key's owner; replies      p50_ms / p99_ms @ serve-1node    simulator workloads
//	  miss_ms_p50, rejected         with cached=false; queue rejections
//	                                (serve-*)
//	cluster.proxy_hop_ms_p50,       the same GETs via the node outside the       throughput_rps, p50_ms           serve-1node
//	  outbox_pending_max,           replica set minus via the owner; /healthz    @ serve-3node
//	  outbox_drain_s, repaired      outbox depth every 100 ms and until empty
//	                                (serve-3node)
//	client.attempts_per_req,        a counting RoundTripper under the fleet      p99_ms @ serve-3node             simulator workloads
//	  breakers_open                 client; Fleet.BreakerStates (serve-*)        (1.0 on serve-1node)
//	trace.overhead_frac,            traced against untraced time; traced         -                                -
//	  trace.faithful                output against untraced output (all)
package main
