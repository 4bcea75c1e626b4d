// Command perfbench is the repository's benchmark: it runs one named
// workload against the Desis engine or a TCP local → intermediate → root
// tree, checks every window against internal/baseline's CeBuffer, and
// prints its metrics. See README.md in this directory.
//
//	go run . --workload tree-avg --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"desis/internal/core"
	"desis/internal/gen"
	"desis/internal/query"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"events_per_s", "1/s"},
	{"cpu_us_per_event", "us"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). Freshness is end to
// end but listed here, without a bound: on a shared host it follows the
// host's stalls more than the program (see README.md). It is measured on
// the traced run's untraced (on a tree, paced) repetitions.
var perLayer = []metricDef{
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"core.process_ns_per_event", "ns"},
	{"core.batch_p99_us", "us"},
	{"core.advance_p99_us", "us"},
	{"core.calculations_per_event", "count"},
	{"core.slices_per_kevent", "count"},
	{"operator.merges_per_window", "count"},
	{"message.bytes_per_event", "B"},
	{"message.bytes_per_event.partial", "B"},
	{"message.bytes_per_event.watermark", "B"},
	{"message.frames_per_kevent", "count"},
	{"message.encode_ns_per_frame", "ns"},
	{"message.decode_ns_per_frame", "ns"},
	{"node.inter_handle_ns_per_msg", "ns"},
	{"node.root_handle_ns_per_msg", "ns"},
	{"plan.build_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"result_key_mismatch", "count"},
	{"trace.cpu_ratio", "ratio"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// events overrides the workload's events per repetition; the smoke
	// test sets it, the command line cannot.
	events int
	// out is where result files and spans are written; empty writes none.
	out string
}

// repEnv is the fixed input of every repetition of a run.
type repEnv struct {
	w       workload
	queries []query.Query
	steps   []feedStep  // engine input, also the reference's input
	rounds  []treeRound // tree input
	events  int
	ref     *reference
	tr      *tracer // nil for untraced repetitions
	// closed feeds a tree closed loop instead of at its offered rate.
	closed bool
}

// repOut is what one repetition measured.
type repOut struct {
	closed           bool // a tree's closed-loop repetition
	events           int
	setup, wall, cpu time.Duration
	heap             float64 // bytes
	lateP99          float64 // ms, paced trees only
	freshP50         float64 // ms
	freshP99         float64 // ms
	layers           map[string]float64
	// samples is the sample count behind each percentile the repetition
	// measured, by metric name.
	samples map[string]int
}

// collector appends the program's window results during a repetition and
// signals when the reference's window count is reached.
type collector struct {
	origin time.Time
	// callStart is when the engine call under way began (single engine
	// only, where results are emitted synchronously inside the call).
	callStart int64
	recs      []rec
	want      int
	done      chan struct{}
	doneAt    int64
	// emitted is len(recs), for a feeder that waits on the root's output;
	// progress, when not nil, is signalled each time it grows.
	emitted  atomic.Int64
	progress chan struct{}
}

func newCollector(want int) *collector {
	return &collector{origin: time.Now(), recs: make([]rec, 0, want+want/8+16), want: want, done: make(chan struct{})}
}

func (c *collector) onResult(r core.Result) {
	x := toRec(r)
	x.at = int64(time.Since(c.origin))
	x.fresh = x.at - c.callStart
	c.recs = append(c.recs, x)
	if c.progress != nil {
		c.emitted.Store(int64(len(c.recs)))
		select {
		case c.progress <- struct{}{}:
		default:
		}
	}
	if len(c.recs) == c.want {
		c.doneAt = x.at
		close(c.done)
	}
}

// waitFor blocks until at least n windows have been emitted, or fails
// after timeout.
func (c *collector) waitFor(n int, timeout time.Duration) error {
	if c.emitted.Load() >= int64(n) {
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for c.emitted.Load() < int64(n) {
		select {
		case <-c.progress:
		case <-deadline.C:
			return fmt.Errorf("root emitted %d windows, feeder waited %v for %d", c.emitted.Load(), timeout, n)
		}
	}
	return nil
}

// setFreshness takes the freshness percentiles over the windows of recs
// that carry a sample.
func (o *repOut) setFreshness(recs []rec) {
	var fresh []float64
	for _, x := range recs {
		if x.fresh != noFresh {
			fresh = append(fresh, float64(x.fresh)/1e6)
		}
	}
	o.freshP50, o.freshP99 = quantile(fresh, 0.50), quantile(fresh, 0.99)
	o.samples["freshness_p50_ms"], o.samples["freshness_p99_ms"] = len(fresh), len(fresh)
}

// report is a run's outcome.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// detail goes to the result file only.
	detail map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: engine-mix, tree-avg or tree-median")
	flag.Int64Var(&cfg.seed, "seed", 1, "stream seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced repetitions and prints per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for result files and spans")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", cfg.workload, traceFlag)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printReport prints the env block and the run's details, writes the
// result file when cfg.out is set, and ends with the JSON result line.
func printReport(w io.Writer, cfg config, rep *report) error {
	env := envBlock(cfg)
	rep.detail["env"] = env
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(w, "env %s: %v\n", k, env[k])
	}
	for _, k := range sortedKeys(rep.detail) {
		if k != "env" {
			fmt.Fprintf(w, "%s: %v\n", k, rep.detail[k])
		}
	}
	if cfg.out != "" {
		if err := writeResult(cfg, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// run generates the seed's input, computes the reference, runs one warm-up
// repetition and then measured repetitions until cfg.seconds have passed,
// and reports medians over the measured repetitions. Every repetition's
// output is checked against the reference. A tree alternates paced and
// closed-loop repetitions: the closed ones give events_per_s, the paced
// ones everything else. A traced run alternates traced and untraced
// (paced) repetitions; the ratio of their CPU per event is the tracing
// overhead.
func run(cfg config) (*report, error) {
	w := workloads[cfg.workload]
	env := &repEnv{w: w, queries: w.catalog(), events: w.events}
	if cfg.events > 0 {
		env.events = cfg.events
	}
	evs := gen.NewStream(w.stream(cfg.seed)).Events(env.events)
	drain := evs[len(evs)-1].Time + w.drain
	if w.tree {
		env.rounds, env.steps = dealRounds(evs, w.batch, drain)
	} else {
		for lo := 0; lo < len(evs); lo += w.batch {
			b := evs[lo:min(lo+w.batch, len(evs))]
			env.steps = append(env.steps, feedStep{evs: b, adv: b[len(b)-1].Time})
		}
		env.steps = append(env.steps, feedStep{adv: drain})
	}
	t0 := time.Now()
	ref, err := buildReference(env.queries, env.steps)
	if err != nil {
		return nil, err
	}
	env.ref = ref
	refTime := time.Since(t0)
	// A hung topology must end the run with an error, not hang it. The
	// measured phase overruns cfg.seconds by at most one repetition, and a
	// repetition waits at most resultWait at a time for the root.
	watchdog := time.AfterFunc(time.Duration(cfg.seconds*float64(time.Second))+hangMargin, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded --seconds by %v\n", hangMargin)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if w.tree {
		env.steps = nil // only the reference reads the global stream
	}

	runRep := runEngineRep
	if w.tree {
		runRep = runTreeRep
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := &report{Metrics: map[string]metricValue{}, detail: map[string]any{}}
	var plain, traced []repOut
	var perRep = map[string][]float64{}
	var keyMismatch []float64
	samples := map[string][]int{}
	check := func(out repOut, recs []rec, measured bool) {
		failed, km := ref.check(recs)
		rep.Attempted += len(ref.recs)
		rep.Failed += failed
		keyMismatch = append(keyMismatch, float64(km))
		if measured {
			for k, n := range out.samples {
				samples[k] = append(samples[k], n)
			}
		}
	}

	env.tr = nil
	out, recs, err := runRep(env)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	check(out, recs, false)

	// A cycle is one repetition of each leg: paced and closed on a tree,
	// the one closed loop on the engine. At least three cycles run,
	// however long they take. A traced run traces every other cycle's
	// first (paced) repetition.
	cycle := 1
	if w.tree {
		cycle = 2
	}
	start := time.Now()
	for k := 0; k < 3*cycle || time.Since(start).Seconds() < cfg.seconds; k++ {
		env.tr, env.closed = nil, w.tree && k%cycle == 1
		if cfg.trace && k%(2*cycle) == 0 {
			// Spans of the last traced repetition are the ones written.
			tr.spans = tr.spans[:0]
			env.tr = tr
		}
		out, recs, err := runRep(env)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", k, err)
		}
		check(out, recs, true)
		if env.tr != nil {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}
	measured := time.Since(start)

	for _, o := range plain {
		ev := float64(o.events)
		perRep["setup_s"] = append(perRep["setup_s"], o.setup.Seconds())
		if !w.tree || o.closed {
			perRep["events_per_s"] = append(perRep["events_per_s"], ev/o.wall.Seconds())
		}
		if o.closed {
			continue // a tree's closed loop gives its throughput only
		}
		perRep["cpu_us_per_event"] = append(perRep["cpu_us_per_event"], float64(o.cpu)/1e3/ev)
		perRep["heap_mb"] = append(perRep["heap_mb"], o.heap/1e6)
		perRep["freshness_p50_ms"] = append(perRep["freshness_p50_ms"], o.freshP50)
		perRep["freshness_p99_ms"] = append(perRep["freshness_p99_ms"], o.freshP99)
		perRep["gen.late_ms"] = append(perRep["gen.late_ms"], o.lateP99)
	}
	rep.Correct = rep.Failed == 0
	rep.detail["reference_windows_per_rep"] = len(ref.recs)
	rep.detail["reference_s"] = refTime.Seconds()
	rep.detail["measured_s"] = measured.Seconds()
	rep.detail["reps_untraced"] = len(plain)
	rep.detail["reps_traced"] = len(traced)
	rep.detail["failed_frac"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.detail["result_key_mismatch_per_rep"] = median(keyMismatch)
	rep.detail["percentile_samples"] = samples
	rep.detail["per_rep"] = perRep
	if xs := perRep["cpu_us_per_event"]; len(xs) >= 4 {
		// Drift across repetitions in one process: the later half's
		// median CPU per event over the earlier half's.
		rep.detail["rep_drift"] = median(xs[len(xs)/2:]) / median(xs[:len(xs)/2])
	}

	if !cfg.trace {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricValue{median(perRep[m.name]), m.unit}
		}
		return rep, nil
	}
	layers := map[string][]float64{}
	var tracedCPU []float64
	for _, o := range traced {
		for k, v := range o.layers {
			layers[k] = append(layers[k], v)
		}
		tracedCPU = append(tracedCPU, float64(o.cpu)/1e3/float64(o.events))
	}
	layers["freshness_p50_ms"] = perRep["freshness_p50_ms"]
	layers["freshness_p99_ms"] = perRep["freshness_p99_ms"]
	layers["gen.late_ms"] = perRep["gen.late_ms"]
	layers["result_key_mismatch"] = keyMismatch
	layers["trace.cpu_ratio"] = []float64{median(tracedCPU) / median(perRep["cpu_us_per_event"])}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{median(layers[m.name]), m.unit}
	}
	if cfg.out != "" {
		if err := tr.write(filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// envBlock describes the host and the run, for every result file.
func envBlock(cfg config) map[string]any {
	w := workloads[cfg.workload]
	events := w.events
	if cfg.events > 0 {
		events = cfg.events
	}
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"rev":              rev,
		"seed":             cfg.seed,
		"workload":         cfg.workload,
		"events_per_rep":   events,
		"offered_rate_eps": w.rate,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeResult(cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	body, err := json.MarshalIndent(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed,
		"metrics": rep.Metrics, "detail": rep.detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)), body, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
