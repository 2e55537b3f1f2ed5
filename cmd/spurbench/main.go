package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers bounds every workload's concurrency: the simulator drivers'
// Parallel and the service workloads' closed-loop clients. It is the CPU
// count of the host the benchmark was sized on, so the load comes from one
// process with no more workers than that host has CPUs.
const workers = 2

// setUps is how many set-ups a run times at least. One set-up takes
// milliseconds, far less than an operation, so a run repeats it to give the
// median enough samples.
const setUps = 30

// size scales a workload. Refs is the references per simulator run (a Table
// 4.1 cell, a sampled stream, or a service run request); Reps is Table 4.1's
// repetitions; Requests is the service schedule's length and Seeds the
// number of distinct experiment seeds it draws from.
type size struct {
	Refs     int64
	Reps     int
	Requests int
	Seeds    int
}

// benchWorkload is one named benchmark input. prepare readies the stage of
// one operation without timing it; the stage's start is what setup_s times.
type benchWorkload struct {
	name    string
	bit     int  // the workload's bit in metricDef.in
	full    size // what the benchmark measures
	small   size // what the tests run
	prepare func(sz size, seed uint64) (stage, error)
}

// stage is one operation of a workload, from set-up to tear-down.
type stage interface {
	// start sets the operation up and reports how long that took.
	start() (time.Duration, error)
	// run performs the operation; tr is nil for an untraced one.
	run(tr *tracer) (opResult, error)
	close()
}

// opResult is what one operation measured and produced.
type opResult struct {
	wall    time.Duration
	latMS   []float64 // per-request latencies; nil when the operation is one call
	records []record  // the outputs, for the correctness checks
	// rebuilt marks records that come from the benchmark's own rebuild of a
	// driver rather than from the program, so they only test faithfulness.
	rebuilt bool
	layers  map[string]float64 // per-layer metrics the operation observed
	extra   map[string]float64 // accuracy figures recorded beside the metrics
}

// The workloads' bits, for the layer catalogue.
const (
	wTable41 = 1 << iota
	wSweep
	wServe1
	wServe3
	wSim   = wTable41 | wSweep
	wServe = wServe1 | wServe3
	wAll   = wSim | wServe
)

// workloads. The simulator workloads' full sizes run long enough that the 5
// and 6 MB memories fill, so the page daemon clears reference bits and the
// policies differ; with 2M references per run no cell ever reclaimed a page.
var workloads = []*benchWorkload{
	{name: "table41-exact", bit: wTable41, full: size{Refs: 6_000_000, Reps: 1}, small: size{Refs: 100_000, Reps: 1}, prepare: prepareTable41},
	{name: "sweep-sampled", bit: wSweep, full: size{Refs: 11_000_000}, small: size{Refs: 1_000_000}, prepare: prepareSweep},
	{name: "serve-1node", bit: wServe1, full: size{Refs: 200_000, Requests: 3000, Seeds: 600}, small: size{Refs: 20_000, Requests: 100, Seeds: 20}, prepare: prepareServe(1)},
	{name: "serve-3node", bit: wServe3, full: size{Refs: 200_000, Requests: 3000, Seeds: 600}, small: size{Refs: 20_000, Requests: 100, Seeds: 20}, prepare: prepareServe(3)},
}

func lookup(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is a metric's name and unit and, for a per-layer metric, the
// workloads whose traced runs measure it.
type metricDef struct {
	name, unit string
	in         int
}

// endToEnd lists the untraced run's metrics; BENCHMARK.json declares the
// same names, units and regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", wAll},
	{"wall_s", "s", wAll},
	{"p50_ms", "ms", wAll},
	{"p99_ms", "ms", wAll},
	{"throughput_rps", "req/s", wAll},
	{"peak_rss_mb", "MB", wAll},
}

// perLayer lists the traced run's metrics, named after the modules. Each is
// measured only by the workloads that pass through its layer where the
// benchmark can observe it; the other workloads report it as 0.
var perLayer = []metricDef{
	{"workload.gen_ns_per_ref", "ns", wSim},
	{"workload.gen_share", "ratio", wTable41},
	{"core.access_ns_per_ref", "ns", wTable41},
	{"core.touch_ns_per_ref", "ns", wSweep},
	{"core.miss_per_kref", "count/kref", wTable41},
	{"core.pagein_per_mref", "count/Mref", wTable41},
	{"core.reffault_per_mref", "count/Mref", wTable41},
	{"core.refclear_per_mref", "count/Mref", wTable41},
	{"core.flush_per_mref", "count/Mref", wTable41},
	{"core.dirtyfault_per_mref", "count/Mref", wTable41},
	{"machine.run_ns_per_ref", "ns", wTable41},
	{"machine.loop_share", "ratio", wTable41},
	{"parallel.jobs", "count", wSim},
	{"parallel.busy_frac", "ratio", wSim},
	{"parallel.tail_idle_s", "s", wSim},
	{"sample.profile_s", "s", wSweep},
	{"sample.plan_s", "s", wSweep},
	{"sample.measure_s", "s", wSweep},
	{"sample.estimate_s", "s", wSweep},
	{"sample.detailed_refs", "count", wSweep},
	{"journal.append_us_p50", "us", wServe},
	{"journal.append_us_p99", "us", wServe},
	{"expstore.get_mem_us_p50", "us", wServe},
	{"expstore.get_disk_us_p50", "us", wServe},
	{"expstore.put_us_p50", "us", wServe},
	{"expstore.hit_ratio", "ratio", wServe},
	{"server.hit_rtt_ms_p50", "ms", wServe},
	{"server.miss_ms_p50", "ms", wServe},
	{"server.rejected", "count", wServe},
	{"cluster.proxy_hop_ms_p50", "ms", wServe3},
	{"cluster.outbox_pending_max", "count", wServe3},
	{"cluster.outbox_drain_s", "s", wServe3},
	{"cluster.repaired", "count", wServe3},
	{"client.attempts_per_req", "ratio", wServe},
	{"client.breakers_open", "count", wServe},
	{"trace.overhead_frac", "ratio", wAll},
	{"trace.faithful", "bool", wAll},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run as the ledger keeps it: the result plus the host, the
// sample count behind each metric, the set-up and operation times behind
// the medians, and the output digest.
type report struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Trace    bool                 `json:"trace"`
	Host     host                 `json:"host"`
	Result   result               `json:"result"`
	N        map[string]int       `json:"n"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Digest   string               `json:"digest"`
	Extra    map[string]float64   `json:"extra,omitempty"`
	spans    *tracer
}

type host struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

//go:embed testdata/digests.json
var digestsJSON []byte

// committedDigest returns the recorded seed-1 output digest of a workload at
// its full size, or "" when none is recorded.
func committedDigest(name string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("reading testdata/digests.json: %w", err)
	}
	return m[name], nil
}

func main() {
	if seed := os.Getenv(readyEnv); seed != "" {
		os.Exit(ready(seed))
	}
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: spurbench agree <dirA> <dirB>")
			os.Exit(2)
		}
		text, ok, err := agree("BENCHMARK.json", os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintf(os.Stderr, "spurbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(text)
		if !ok {
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: table41-exact, sweep-sampled, serve-1node or serve-3node")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "run timed operations while the next one should end within this many seconds")
	traceFlag := flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
	out := flag.String("out", "", "directory to write this run's report file into (none when empty)")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seed == 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "spurbench: need -workload (table41-exact, sweep-sampled, serve-1node, serve-3node), a nonzero -seed and -trace 0 or 1")
		os.Exit(2)
	}
	if err := runMain(w, *seed, *seconds, *traceFlag == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "spurbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(w *benchWorkload, seed uint64, seconds float64, traced bool, out string) error {
	var rep *report
	var err error
	if traced {
		rep, err = runTraced(w, seed, w.full)
	} else {
		rep, err = runUntraced(w, seed, seconds, w.full)
	}
	if err != nil {
		return err
	}
	if seed == 1 {
		want, err := committedDigest(w.name)
		if err != nil {
			return err
		}
		if want != "" && want != rep.Digest {
			fmt.Printf("output digest %s differs from the committed seed-1 digest %s\n", rep.Digest, want)
			rep.Result.Correct = false
			rep.Result.Failed = rep.Result.Attempted
		}
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d digest=%s\n",
		w.name, seed, traced, rep.Result.Attempted, rep.Result.Failed, rep.Digest)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Printf("  %-28s %16.6g %-10s n=%d\n", n, m.Value, m.Unit, rep.N[n])
	}
	for k, v := range rep.Extra {
		fmt.Printf("  %-28s %16.6g (recorded, not gated)\n", k, v)
	}
	if rep.spans != nil {
		path := filepath.Join(os.TempDir(), fmt.Sprintf("spurbench-%s-seed%d.spans.jsonl", w.name, seed))
		if err := rep.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	if out != "" {
		rep.Host = fingerprint()
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		suffix := ""
		if traced {
			suffix = "-trace"
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("%s-seed%d%s.json", w.name, seed, suffix)), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedSetUp prepares and starts one stage of a workload and reports how
// long the start took. It first collects garbage and flushes pending
// writes, so neither the set-up nor the operation after it pays for what
// earlier stages left behind.
func timedSetUp(w *benchWorkload, sz size, seed uint64) (stage, float64, error) {
	st, err := w.prepare(sz, seed)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	syscall.Sync()
	d, err := st.start()
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, d.Seconds(), nil
}

// runUntraced measures the end-to-end metrics: it times setUps set-ups,
// then runs operations, each on a fresh set-up, while the next one, taking
// the median time so far, still ends within seconds. Every output is
// checked against the first output for its key.
func runUntraced(w *benchWorkload, seed uint64, seconds float64, sz size) (*report, error) {
	var setups, walls, lat []float64
	for len(setups) < setUps {
		st, d, err := timedSetUp(w, sz, seed)
		if err != nil {
			return nil, err
		}
		st.close()
		setups = append(setups, d)
	}
	led := newLedger()
	var extra map[string]float64
	var busy float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= seconds {
		st, d, err := timedSetUp(w, sz, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		op, err := st.run(nil)
		st.close()
		if err != nil {
			return nil, err
		}
		walls = append(walls, op.wall.Seconds())
		busy += op.wall.Seconds()
		if op.latMS != nil {
			lat = append(lat, op.latMS...)
		} else {
			lat = append(lat, 1000*op.wall.Seconds())
		}
		led.add(op.records...)
		extra = op.extra
	}
	sort.Float64s(lat)
	values := map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls),
		"p50_ms":         percentile(lat, 0.50),
		"p99_ms":         percentile(lat, tail(0.99, len(lat))),
		"throughput_rps": float64(len(lat)) / busy,
		"peak_rss_mb":    peakRSSMB(),
	}
	n := map[string]int{"setup_s": len(setups), "wall_s": len(walls), "p50_ms": len(lat), "p99_ms": len(lat), "throughput_rps": len(lat), "peak_rss_mb": 1}
	rep, err := newReport(w, seed, false, endToEnd, values, n, led, extra)
	if err != nil {
		return nil, err
	}
	rep.Samples = map[string][]float64{"setup_s": setups, "wall_s": walls}
	return rep, nil
}

// runTraced measures the per-layer metrics from traced and untraced
// operations of the workload itself. It reports every layer metric of the
// catalogue, as 0 for those the workload does not measure, and fails when
// the workload measured a different set than the catalogue declares for it.
func runTraced(w *benchWorkload, seed uint64, sz size) (*report, error) {
	run, err := traceLayers(w, seed, sz)
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64, len(perLayer))
	n := make(map[string]int, len(perLayer))
	measured := 0
	for _, m := range perLayer {
		v, ok := run.layers[m.name]
		if declared := m.in&w.bit != 0; ok != declared {
			return nil, fmt.Errorf("%s: layer metric %s measured=%v, declared=%v", w.name, m.name, ok, declared)
		}
		if ok {
			measured++
			n[m.name] = 1
		}
		values[m.name] = v
	}
	if measured != len(run.layers) {
		return nil, fmt.Errorf("%s: measured %d layer metrics, %d of them catalogued", w.name, len(run.layers), measured)
	}
	rep, err := newReport(w, seed, true, perLayer, values, n, run.led, run.extra)
	if err != nil {
		return nil, err
	}
	rep.spans = run.spans
	return rep, nil
}

// layerRun is what traceLayers measured.
type layerRun struct {
	layers map[string]float64
	led    *ledger // the correctness check over the program's outputs
	extra  map[string]float64
	spans  *tracer
}

// traceLayers runs an untraced, a traced and a second untraced operation
// of w. It returns the per-layer metrics they observed, the tracing
// overhead against the second untraced operation (the first one also pays
// the process's warm-up), and whether the traced operation reproduced the
// untraced output.
func traceLayers(w *benchWorkload, seed uint64, sz size) (layerRun, error) {
	tr := newTracer()
	var ops [3]opResult
	for i, t := range []*tracer{nil, tr, nil} {
		st, _, err := timedSetUp(w, sz, seed)
		if err != nil {
			return layerRun{}, err
		}
		ops[i], err = st.run(t)
		st.close()
		if err != nil {
			return layerRun{}, err
		}
	}
	u, t := ops[0], ops[1]
	run := layerRun{layers: map[string]float64{}, led: newLedger(), extra: u.extra, spans: tr}
	for _, op := range ops {
		fill(run.layers, op.layers)
		if !op.rebuilt {
			run.led.add(op.records...)
		}
	}
	run.layers["trace.overhead_frac"] = t.wall.Seconds()/ops[2].wall.Seconds() - 1
	traced, untraced := newLedger(), newLedger()
	traced.add(t.records...)
	untraced.add(u.records...)
	run.layers["trace.faithful"] = 0
	if traced.failed == 0 && traced.digest() == untraced.digest() {
		run.layers["trace.faithful"] = 1
	}
	return run, nil
}

// fill copies into dst every metric of src that dst does not have yet.
func fill(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

func newReport(w *benchWorkload, seed uint64, traced bool, defs []metricDef, values map[string]float64, n map[string]int, led *ledger, extra map[string]float64) (*report, error) {
	res := result{
		Correct:   led.failed == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return &report{Workload: w.name, Seed: seed, Trace: traced, Result: res, N: n, Digest: led.digest(), Extra: extra}, nil
}

// tail lowers a tail percentile to the highest one that has at least ten
// samples beyond it, but not below the median: with fewer than a thousand
// samples p99 would rest on a handful of them.
func tail(q float64, n int) float64 {
	return max(0.5, min(q, 1-10/float64(n)))
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}
