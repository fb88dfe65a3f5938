// Command e2e is the repository's end-to-end benchmark. It drives six user
// paths of atlarge in one process by calling the layers' public functions,
// times those calls from outside, checks every output, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"},
// where metrics are the end-to-end metrics of BENCHMARK.json, or with
// -trace 1 its per-layer metrics.
//
// Usage (from the bench directory):
//
//	go run ./e2e [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./e2e -compare A.ndjson B.ndjson
//	go run ./e2e -pin > e2e/digests.json
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"atlarge"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the gated metrics every workload reports from its untraced
// run, each a median. A batch workload's operation is one iteration on one
// input; serve's wall_s is the median job round trip, and its alloc_mib and
// allocs are the load's totals per job served. The wall and heap bounds are
// as wide as the contract allows: on a shared 2-vCPU host the same input's
// wall time drifts by ±20% within minutes. Process CPU per operation (cpu_s)
// moves with wall time on that host and is printed, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.25},
	{"alloc_mib", "MiB", "lower", 0.1},
	{"allocs", "count", "lower", 0.2},
}

// perLayer are the metrics of the traced run. Self times are given as a
// share of the pool's capacity (wall × workers) so that a layer a workload
// never enters reads 0%, not a time; the seconds behind each share are in
// the human-readable table.
var perLayer = []metricDef{
	{"sched.dispatch_pct", "%", "lower", 0},
	{"sched.task_finish_pct", "%", "lower", 0},
	{"sched.arrive_pct", "%", "lower", 0},
	{"autoscale.handler_pct", "%", "lower", 0},
	{"p2p.handler_pct", "%", "lower", 0},
	{"mmog.handler_pct", "%", "lower", 0},
	{"faas.handler_pct", "%", "lower", 0},
	{"sim.other_pct", "%", "lower", 0},
	{"atlarge.aggregate_pct", "%", "lower", 0},
	{"atlarge.render_pct", "%", "lower", 0},
	{"scenario.render_pct", "%", "lower", 0},
	{"workload.source_pct", "%", "lower", 0},
	{"workload.next_pct", "%", "lower", 0},
	{"dist.protocol_pct", "%", "lower", 0},
	{"api.server_pct", "%", "lower", 0},
	{"exec.idle_pct", "%", "lower", 0},
	{"sim.kernels", "count", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sched.dispatch_n", "count", "lower", 0},
	{"sched.task_finish_n", "count", "lower", 0},
	{"exec.tasks", "count", "lower", 0},
	{"exec.busy_ratio", "ratio", "higher", 0},
	{"dist.claims", "count", "lower", 0},
	{"dist.redispatched", "count", "lower", 0},
	{"dist.resp_kib", "KiB", "lower", 0},
	{"dist.overhead_ratio", "ratio", "lower", 0},
	{"api.polls_per_job", "count", "lower", 0},
	{"api.cache_hit_ratio", "ratio", "higher", 0},
	{"api.refused", "count", "lower", 0},
	{"api.state_kib_per_job", "KiB", "lower", 0},
	{"workload.allocs_per_job", "count", "lower", 0},
	{"workload.live_mib_after_source", "MiB", "lower", 0},
	{"bench.cpu_util", "ratio", "lower", 0},
	{"bench.backlog_end", "count", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}

// experimentIDs are the registered experiments, in catalog order; the
// per-experiment shares atlarge.exp_pct.<id> join perLayer.
var experimentIDs = atlarge.DefaultRegistry().IDs()

func init() {
	for _, id := range experimentIDs {
		perLayer = append(perLayer, metricDef{"atlarge.exp_pct." + id, "%", "lower", 0})
	}
}

// workloadDef is one user path the benchmark drives.
type workloadDef struct {
	Name string
	Why  string
	// run measures the workload into r.
	run func(c *config, r *result) error
	// reference computes the digest of the workload's canonical output for
	// a seed (and window) without measuring anything; -pin records it.
	reference func(seed int64, window time.Duration) (string, error)
	// windowed marks a workload whose output depends on the window length.
	windowed bool
}

var workloads = []workloadDef{
	{"tab9", "the slowest experiment: sched dispatch and portfolio what-if simulations do almost all the work", runTab9, refTab9, false},
	{"catalog", "the other 11 experiments at 5 replicas: domain handlers, exec pool balance and aggregation; sched does little", runCatalog, refCatalog, false},
	{"sweep", "a 32-task scenario sweep over static policies: workload generation plus sched, no portfolio and no network", runSweep, refSweep, false},
	{"sweep-dist", "the same sweep through 2 dist workers over loopback HTTP, so its difference to sweep isolates the dist layer", runSweepDist, refSweep, false},
	{"serve", "open-loop job submissions that share nothing and cache-hit reads that share everything, against the HTTP API", runServe, refServe, true},
	{"stream", "a 10^6-client population drained for 2*10^6 jobs: the workload layer alone, sched bypassed", runStream, refStream, false},
}

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration // the measured window of one run
	trace  bool
	// small shrinks the batch workloads' inputs for the smoke test; their
	// outputs then match no pinned digest.
	small bool
}

// metricValue is one measured metric: the reported value, its unit and the
// number of samples it summarizes.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is everything one workload run produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest is the SHA-256 of the workload's canonical output; Pinned
	// tells whether digests.json holds one for this seed to check it against.
	Digest  string                 `json:"digest"`
	Pinned  bool                   `json:"pinned"`
	Metrics map[string]metricValue `json:"metrics"`
	Table   []layerRow             `json:"table,omitempty"`
	// Oversubscribed is how far the traced rows exceed the pool capacity,
	// when they do (see analyse).
	Oversubscribed float64 `json:"oversubscribed,omitempty"`
	Meta           meta    `json:"meta"`
}

// set records a metric.
func (r *result) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, N: n}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem records a failed check; the run is then not correct.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// meta records where a result was measured.
type meta struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go"`
	Commit    string `json:"commit"`
}

func currentMeta() meta {
	m := meta{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+dirty"
				}
			}
		}
	}
	return m
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", defaultSeed, "input seed of every workload")
		seconds = flag.Float64("seconds", defaultSeconds, "measured window of each workload run, in seconds")
		trace   = flag.Int("trace", 0, "1 runs half the window traced and reports the per-layer metrics")
		out     = flag.String("out", "", "append each workload's full result as one JSON line to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
		pin     = flag.Bool("pin", false, "print the output digests of the pinned seeds as digests.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			usage("-compare needs two result files")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	case flag.NArg() != 0:
		usage("unexpected arguments")
	case *trace != 0 && *trace != 1:
		usage("-trace takes 0 or 1")
	case *seconds <= 0:
		usage("-seconds must be positive")
	}
	selected := workloads
	if *name != "all" {
		i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.Name == *name })
		if i < 0 {
			usage(fmt.Sprintf("unknown workload %q", *name))
		}
		selected = workloads[i : i+1]
	}
	if *pin {
		if err := printPins(os.Stdout, selected); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	c := &config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	var results []*result
	for _, w := range selected {
		r := runWorkload(c, w)
		printResult(os.Stdout, r)
		if *out != "" {
			if err := appendResult(*out, r); err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				os.Exit(1)
			}
		}
		results = append(results, r)
		runtime.GC()
	}
	summary := summarize(results, c.trace)
	raw, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if !summary.Correct {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "e2e:", msg)
	flag.Usage()
	os.Exit(2)
}

// defaultSeed is the seed the output digests were first pinned for.
const defaultSeed = 42

// defaultSeconds is the measured window of one workload run.
const defaultSeconds = 12

// runWorkload runs one workload and settles its correctness.
func runWorkload(c *config, w workloadDef) *result {
	r := &result{
		Workload: w.Name, Seed: c.seed, Seconds: c.window.Seconds(), Trace: c.trace,
		Metrics: map[string]metricValue{}, Meta: currentMeta(),
	}
	if err := w.run(c, r); err != nil {
		// The operation that stopped the run counts as failed.
		r.fail("%v", err)
	} else {
		checkPinned(r, w, c)
	}
	if c.trace {
		fillLayers(r)
	}
	r.Attempted = max(r.Attempted, r.Failed, 1)
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return r
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

// summaryMetric is one metric of the last output line: exactly its value and
// unit. The sample counts are in the human-readable report above it.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the workload results into the last output line: the
// end-to-end metrics, or with trace the per-layer ones. Several workloads
// prefix each metric with "<workload>/".
func summarize(results []*result, trace bool) summary {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := summary{Correct: true, Metrics: map[string]summaryMetric{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range defs {
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			s.Metrics[key] = summaryMetric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	return s
}

// printResult writes the human-readable report of one run: every metric with
// its unit and sample count, the traced layer table, and any failed check.
func printResult(w io.Writer, r *result) {
	status := "OK"
	if !r.Correct {
		status = "FAIL"
	}
	fmt.Fprintf(w, "== %s  seed=%d  window=%gs  trace=%v  nproc=%d  %s  commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Meta.NProc, r.Meta.GoVersion, r.Meta.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	rank := func(n string) int {
		if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == n }); i >= 0 {
			return i
		}
		return len(endToEnd)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := rank(names[i]), rank(names[j]); a != b {
			return a < b
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	if len(r.Table) > 0 {
		printTable(w, r.Table, r.Oversubscribed)
	}
	pin := "unpinned seed: checked for determinism and against the reference path only"
	if r.Pinned {
		pin = "checked against digests.json"
	}
	fmt.Fprintf(w, "  output sha256 %s (%s)\n", r.Digest, pin)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	fmt.Fprintf(w, "  correct=%s attempted=%d failed=%d\n", status, r.Attempted, r.Failed)
}

// appendResult adds r as one JSON line to path.
func appendResult(path string, r *result) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
