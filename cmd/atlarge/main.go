// Command atlarge reproduces the paper's tables and figures and runs
// declarative what-if scenarios.
//
// Usage:
//
//	atlarge list [-tag T] [--domains] [--format text|json]
//	atlarge run [experiment ...] [--all] [--seed N] [--parallel P] [--replicas R] [--format text|json] [--progress] [--timeout D] [--trace-dir DIR] [--trace-wall]
//	atlarge serve [--addr HOST:PORT] [--parallel P] [--rate R] [--burst B] [--queue-depth Q] [--max-jobs J] [--state-dir DIR] [--workers H1,H2] [--pprof] [--kernel-profile]
//	atlarge worker [--listen HOST:PORT] [--parallel P]
//	atlarge trace <experiment-id> [--seed N] [--dir DIR] [--wall] [--timeout D]
//	atlarge trace --spec <spec.json> [--cell ID] [--seed N] [--dir DIR] [--wall] [--timeout D]
//	atlarge trace --validate <trace.json>
//	atlarge scenario validate <spec.json> [--domain D]
//	atlarge scenario run <spec.json> [--domain D] [--seed N] [--parallel P] [--replicas R] [--format text|json|csv] [--progress] [--timeout D] [--trace-dir DIR] [--trace-wall]
//	atlarge scenario sweep <spec.json> [--domain D] [--seed N] [--parallel P] [--replicas R] [--format text|json|csv] [--progress] [--timeout D] [--checkpoint DIR] [--workers H1,H2] [--trace-dir DIR] [--trace-wall]
//
// Experiments: fig1 fig2 fig3 fig7 fig9 tab5 tab6 tab7 tab8 tab9 autoscale bdc
//
// run executes the requested experiments (or the whole catalog with --all)
// on the streaming work-plan executor. Seeds are derived per experiment and
// replica, so reports are identical for every --parallel level; --format
// json emits the typed result documents (Results API v2: named metrics,
// structured tables, series — see the README's Results API section).
// --progress renders a live task-completion line on stderr as results
// stream in, and --timeout aborts the run (cooperatively cancelling the
// worker pool) after a duration. --trace-dir DIR captures the run's kernel
// traces and task spans as NDJSON (trace.ndjson) and Chrome trace-event
// JSON (trace.json, loadable in ui.perfetto.dev) and prints the trace
// summary and per-event-name profile tables on stderr; --trace-wall keeps
// the nondeterministic wall-clock fields (handler ns, worker spans).
// Virtual-time fields are deterministic: traces stay byte-identical across
// reruns and at any --parallel. scenario run|sweep take the same two
// flags.
//
// serve exposes the same results over HTTP: GET /v1/experiments (catalog),
// GET /v1/run?ids=&seed=&replicas= (typed results, one run job per
// (experiment, seed, replicas), so repeated queries skip the simulation),
// GET /v1/run/stream (the same run jobs as live NDJSON progress events),
// POST /v1/scenario/sweep (a scenario spec as the request body, run as a
// sweep job and awaited), and the jobs resource: POST /v1/jobs submits
// {"kind": "sweep", "spec": {...}} and GET/DELETE /v1/jobs/{id} (plus
// /result and /profile) steer sweep and run jobs alike. Job IDs derive
// from the work, so identical requests dedup onto one job. GET /metrics
// exports Prometheus text-format server metrics. With --state-dir, sweep jobs are
// durable: an interrupted server re-lists finished jobs on restart and
// resumes interrupted ones byte-identically from their checkpointed tasks.
// --rate/--burst rate-limit work-submitting endpoints per client (keyed by
// the X-Atlarge-Client header or remote host), and --queue-depth refuses
// submissions with 429 + a computed Retry-After once the pending-task queue
// is that deep.
//
// trace is a shorthand for a traced single run: `trace <exp> --dir D` is
// `run <exp> --parallel 1 --replicas 1 --trace-dir D` and `trace --spec F
// --cell C --dir D` is `scenario sweep F --parallel 1 --replicas 1
// --trace-dir D` over the one cell C, each writing the same files with the
// report left out and the summary and profile tables on stdout; --wall is
// --trace-wall. `trace --validate FILE` checks an existing Chrome trace
// file (well-formed, monotone per-track timestamps).
//
// scenario sweep --checkpoint DIR persists every completed (cell, replica)
// result under DIR as it finishes and resumes from there on a rerun: an
// interrupted sweep (Ctrl-C, --timeout, a crash) picks up where it stopped
// and produces a report byte-identical to an uninterrupted run. Runs are
// keyed by a content hash of the spec plus the effective seed and replica
// count, so editing any of them starts a fresh run directory.
//
// worker serves the distributed-execution protocol (internal/dist): a
// versioned handshake plus POST /v1/tasks:claim, which rebuilds a sweep plan
// from the claimed job, runs the listed tasks on the local pool, and streams
// one NDJSON result line per task back with heartbeats in between. Point
// `scenario sweep --workers host1:port,host2:port` or `serve --workers ...`
// at a set of workers and the sweep fans out across them under lease-based
// claims: a worker that dies mid-claim is detected (broken stream or missed
// heartbeats) and only its unfinished tasks are re-dispatched, never
// dropping or duplicating a (cell, replica) result. Reports are
// byte-identical to an in-process run at any worker count.
//
// scenario drives the declarative what-if engine (internal/scenario):
// validate checks a spec and reports every problem, run executes an unswept
// spec, and sweep expands the spec's axis lists into the cross-product of
// concrete scenarios and renders the comparative report. Specs name a
// simulation domain (sched, autoscale, mmog — see `atlarge list --domains`);
// --domain fills the domain of a spec that omits it, and otherwise must
// match the spec's declaration. See examples/scenarios/ for runnable specs.
// A one-cell sched spec is also the single-simulation tool: a named policy
// ("policy": "fcfs") runs one static-policy simulation, and "policy":
// "portfolio" runs the periodic portfolio scheduler over the same trace;
// --replicas reports either as mean ± 95% CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"atlarge"
	"atlarge/internal/api"
	"atlarge/internal/dist"
	"atlarge/internal/exec"
	"atlarge/internal/scenario"
)

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// parseInterleaved accepts positionals anywhere around the flags
// (`run fig9 -seed 7`, `run --seed 7 fig9 --format json`): it collects
// leading positionals, parses flags, and resumes on what Parse stopped at.
// A bare "-" counts as a positional: flag.Parse stops at it without
// consuming it, so treating it as a flag would loop forever.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var positionals []string
	for len(args) > 0 {
		if args[0] == "-" || !strings.HasPrefix(args[0], "-") {
			positionals = append(positionals, args[0])
			args = args[1:]
			continue
		}
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rem := fs.Args()
		// flag.Parse consumes a bare "--" terminator; everything after it
		// is positional even when it starts with "-".
		if cut := len(args) - len(rem); cut >= 1 && args[cut-1] == "--" {
			return append(positionals, rem...), nil
		}
		args = rem
	}
	return positionals, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "atlarge:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	return runTo(os.Stdout, args)
}

func runTo(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: atlarge <list|run|trace|serve|worker|scenario> [args] (see 'go doc atlarge/cmd/atlarge')")
	}
	switch args[0] {
	case "list":
		fs := newFlagSet("list")
		tag := fs.String("tag", "", "only experiments carrying this tag")
		domains := fs.Bool("domains", false, "list scenario domains instead of experiments")
		format := fs.String("format", "text", "output format: text or json")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *format != "text" && *format != "json" {
			return fmt.Errorf("unknown format %q (want text or json)", *format)
		}
		if *domains {
			return listDomains(w, *format)
		}
		entries := []api.CatalogEntry{}
		for _, e := range api.Catalog(atlarge.DefaultRegistry()) {
			if *tag != "" && !slices.Contains(e.Tags, *tag) {
				continue
			}
			if *format == "text" {
				fmt.Fprintln(w, e.ID)
				continue
			}
			entries = append(entries, e)
		}
		if *format == "json" {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(entries)
		}
		return nil
	case "scenario":
		return runScenario(w, args[1:])
	case "trace":
		return runTrace(w, args[1:])
	case "run":
		fs := newFlagSet("run")
		all := fs.Bool("all", false, "run the full experiment catalog")
		o := runOpts{name: "run", seed: 42, replicas: 1, info: os.Stderr}
		o.bind(fs, "base seed for per-experiment seed derivation", "replicas per experiment, aggregated as mean±95% CI", "text", "json")
		ids, err := o.parse(fs, args[1:])
		if err != nil {
			return err
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
		}
		if *all || len(ids) == 0 {
			ids = atlarge.Experiments()
		}
		return runExperiments(w, o, ids)
	case "serve":
		fs := newFlagSet("serve")
		var (
			addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
			parallel   = fs.Int("parallel", 0, "worker pool size behind the API (0 = GOMAXPROCS)")
			rate       = fs.Float64("rate", 0, "per-client admission rate for work-submitting endpoints (requests/second; 0 = unlimited)")
			burst      = fs.Int("burst", 0, "token-bucket burst per client (0 = max(1, ceil(rate)))")
			queueDepth = fs.Int("queue-depth", 0, "pending-task bound before submissions get 429 + Retry-After (0 = 4096)")
			maxJobs    = fs.Int("max-jobs", 0, "concurrently running async jobs (0 = 4)")
			stateDir   = fs.String("state-dir", "", "directory for durable job state; jobs survive restarts and resume from checkpoints")
			workers    = fs.String("workers", "", "comma-separated worker addresses (host:port); sweeps execute across them instead of the in-process pool")
			pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; off the API mux and its metrics)")
			kprofile   = fs.Bool("kernel-profile", false, "aggregate per-event-name kernel profiles and export them on /metrics (adds per-event tracing cost)")
		)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		srv := api.New(api.Config{
			Parallelism:   *parallel,
			Rate:          *rate,
			Burst:         *burst,
			QueueDepth:    *queueDepth,
			MaxJobs:       *maxJobs,
			StateDir:      *stateDir,
			Workers:       splitAddrs(*workers),
			KernelProfile: *kprofile,
		})
		// Workers connect before job recovery, so resumed sweeps distribute
		// too; an unreachable worker fails the boot rather than a sweep.
		if err := srv.ConnectWorkers(context.Background()); err != nil {
			return err
		}
		if *stateDir != "" {
			resumed, restored, err := srv.RecoverJobs()
			if err != nil {
				fmt.Fprintf(os.Stderr, "atlarge serve: job recovery: %v\n", err)
			}
			if resumed+restored > 0 {
				fmt.Fprintf(w, "recovered %d job(s): %d resumed, %d restored\n", resumed+restored, resumed, restored)
			}
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// pprof mounts on a wrapper mux, not the API server's own mux, so
		// profiling endpoints never join the public route-pattern metrics
		// table and stay impossible to reach unless --pprof was given.
		var handler http.Handler = srv
		if *pprofOn {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", netpprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
			mux.Handle("/", srv)
			handler = mux
		}
		// The listen line goes out before blocking so scripts (and
		// TestE2ESmoke32) can scrape the bound port even with --addr :0.
		fmt.Fprintf(w, "serving Results API v2 on http://%s\n", ln.Addr())
		return http.Serve(ln, handler)
	case "worker":
		fs := newFlagSet("worker")
		var (
			listen   = fs.String("listen", "127.0.0.1:0", "listen address (host:port; port 0 picks a free port)")
			parallel = fs.Int("parallel", 0, "local worker pool size per claim (0 = the dispatcher's hint, else GOMAXPROCS)")
		)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		wk := &dist.Worker{
			Build:       map[string]dist.Builder{scenario.DistJobKind: scenario.WorkerBuilder()},
			Parallelism: *parallel,
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		// The listen line goes out before blocking so scripts (and
		// TestE2ESmoke32) can scrape the bound port even with --listen :0.
		fmt.Fprintf(w, "worker serving sweep tasks on http://%s\n", ln.Addr())
		return http.Serve(ln, wk.Handler())
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// splitAddrs parses a comma-separated address list, dropping empty entries.
func splitAddrs(raw string) []string {
	var out []string
	for _, a := range strings.Split(raw, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// listDomains renders the scenario-domain catalog: every registered
// simulator with its sweepable axes, metrics, and default objective.
func listDomains(w io.Writer, format string) error {
	type domainEntry struct {
		Name             string               `json:"name"`
		Axes             []string             `json:"axes"`
		Metrics          []scenario.MetricDef `json:"metrics"`
		DefaultObjective string               `json:"default_objective"`
	}
	var entries []domainEntry
	for _, name := range scenario.DomainNames() {
		d, err := scenario.DomainByName(name)
		if err != nil {
			return err
		}
		entries = append(entries, domainEntry{
			Name:             d.Name(),
			Axes:             scenario.AxisNames(d),
			Metrics:          d.Metrics(),
			DefaultObjective: d.DefaultObjective(),
		})
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(entries)
	}
	for _, e := range entries {
		fmt.Fprintf(w, "%s\n  axes: %s\n  objective: %s (default)\n",
			e.Name, strings.Join(e.Axes, " "), e.DefaultObjective)
	}
	return nil
}

// withTimeout returns a background context bounded by d (unbounded when
// d == 0) and its cancel func.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// progressLine renders a live single-line task ticker: carriage-return
// overdraw while tasks stream in, newline-terminated when the plan drains.
// With a non-nil stats it also reports the live completion rate and the
// executor's pending-task queue depth.
func progressLine(w io.Writer, label string, stats *exec.Stats) func(done, total int, id string) {
	start := time.Now()
	return func(done, total int, id string) {
		line := fmt.Sprintf("%s: %d/%d", label, done, total)
		if stats != nil {
			if el := time.Since(start).Seconds(); el > 0 {
				line += fmt.Sprintf(" %.1f/s", float64(stats.Completed())/el)
			}
			line += fmt.Sprintf(" queue %d", stats.Pending())
		}
		line += " " + id
		fmt.Fprintf(w, "\r%-79s", line)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// runOpts are the settings of one run of work, shared by the two run
// paths: runExperiments (run, trace <experiment>) and runSweep (scenario
// run|sweep, trace --spec).
type runOpts struct {
	name      string // command name on the progress line and the --timeout error
	seed      int64
	seedSet   bool // --seed was given; sweeps otherwise keep the spec's seed
	parallel  int
	replicas  int
	format    string   // "" renders no report
	formats   []string // the --format values bind accepts
	progress  bool
	timeout   time.Duration
	traceDir  string    // "" captures no trace
	traceWall bool      // the trace keeps its wall-clock fields
	info      io.Writer // receives the trace summary and profile tables

	// Sweeps only.
	checkpoint string
	workers    []string
}

// bind registers the shared flags of run and scenario run|sweep on fs; the
// seed and replicas defaults are o's, and --format takes one of formats.
func (o *runOpts) bind(fs *flag.FlagSet, seedUsage, replicasUsage string, formats ...string) {
	o.formats = formats
	fs.Int64Var(&o.seed, "seed", o.seed, seedUsage)
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.replicas, "replicas", o.replicas, replicasUsage)
	fs.StringVar(&o.format, "format", formats[0], "output format: "+strings.Join(formats, ", "))
	fs.BoolVar(&o.progress, "progress", false, "live task ticker on stderr: completions, tasks/sec, queue depth")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "capture kernel traces and task spans, written as trace.ndjson + trace.json under DIR")
	fs.BoolVar(&o.traceWall, "trace-wall", false, "include nondeterministic wall-clock fields in the captured trace")
}

// parse parses args into fs with positionals allowed among the flags,
// records whether --seed was given and checks --format when bind
// registered it.
func (o *runOpts) parse(fs *flag.FlagSet, args []string) ([]string, error) {
	positionals, err := parseInterleaved(fs, args)
	if err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seedSet = true
		}
	})
	if o.formats != nil && !slices.Contains(o.formats, o.format) {
		return nil, fmt.Errorf("unknown format %q (want %s)", o.format, strings.Join(o.formats, ", "))
	}
	return positionals, nil
}

// aborted names --timeout in err when the run's deadline cut it short. The
// wrapped error still names any task that genuinely failed before the
// deadline.
func (o *runOpts) aborted(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("%s aborted after --timeout %v: %w", o.name, o.timeout, err)
	}
	return err
}

// runExperiments runs catalog experiments on the parallel runner and renders
// their reports.
func runExperiments(w io.Writer, o runOpts, ids []string) error {
	ctx, cancel := withTimeout(o.timeout)
	defer cancel()
	runner := &atlarge.Runner{Parallelism: o.parallel, Replicas: o.replicas}
	if o.progress {
		runner.Stats = &exec.Stats{}
		runner.Progress = progressLine(os.Stderr, o.name, runner.Stats)
	}
	var results []atlarge.Result
	err := o.capture(strings.Join(ids, ","), o.seed, ids, o.replicas, func(observe spanObserver) error {
		runner.SpanObserver = observe
		var err error
		results, err = runner.RunContext(ctx, ids, o.seed)
		return err
	})
	if err != nil {
		return o.aborted(ctx, err)
	}
	switch o.format {
	case "json":
		return atlarge.NewRunDocument(o.seed, results).WriteJSON(w)
	case "text":
		for _, res := range results {
			fmt.Fprintf(w, "== %s: %s ==\n", res.ID, res.Title)
			if err := res.Report.WriteText(w, "  "); err != nil {
				return err
			}
			if res.Aggregate != nil {
				fmt.Fprintf(w, "  -- aggregate over %d replicas (mean±95%% CI) --\n", len(res.Reports))
				if err := res.Aggregate.WriteText(w, "  "); err != nil {
					return err
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// runSweep runs scenario cells of spec, in process or across o.workers, and
// renders the comparative report. A trace of one cell is named after the
// cell, a trace of several after the spec.
func runSweep(w io.Writer, o runOpts, spec *scenario.Spec, cells []scenario.Scenario) error {
	opt := scenario.Options{Replicas: o.replicas, Parallelism: o.parallel, Checkpoint: o.checkpoint}
	if o.seedSet {
		opt.Seed = &o.seed
	}
	if o.progress {
		opt.Stats = &exec.Stats{}
		opt.Progress = progressLine(os.Stderr, o.name, opt.Stats)
	}
	ctx, cancel := withTimeout(o.timeout)
	defer cancel()
	var dstats *dist.Stats
	if len(o.workers) > 0 {
		clients, err := dist.DialAll(ctx, o.workers)
		if err != nil {
			return err
		}
		dstats = &dist.Stats{}
		if err := scenario.Distribute(&opt, spec, clients, dstats); err != nil {
			return err
		}
	}
	seed, replicas := scenario.Effective(spec, opt)
	ids := make([]string, len(cells))
	for i := range cells {
		ids[i] = cells[i].ID()
	}
	target := spec.Name
	if len(ids) == 1 {
		target = ids[0]
	}
	var rep *scenario.Report
	err := o.capture(target, seed, ids, replicas, func(observe spanObserver) error {
		opt.SpanObserver = observe
		var err error
		rep, err = scenario.Run(ctx, spec, cells, opt)
		return err
	})
	if dstats != nil {
		if n := dstats.Redispatched(); n > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d task(s) re-dispatched after lost worker claims\n", o.name, n)
		}
	}
	if err != nil {
		return o.aborted(ctx, err)
	}
	switch o.format {
	case "json":
		return rep.WriteJSON(w)
	case "csv":
		return rep.WriteCSV(w)
	case "text":
		return rep.WriteText(w)
	}
	return nil
}

// runScenario dispatches the scenario subcommands: validate, run, sweep.
func runScenario(w io.Writer, args []string) error {
	usage := "usage: atlarge scenario <validate|run|sweep> <spec.json> [--domain D] [--seed N] [--parallel P] [--replicas R] [--format text|json|csv] [--progress] [--timeout D] [--trace-dir DIR] [--trace-wall] [sweep: --checkpoint DIR --workers H1,H2]"
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	sub := args[0]
	if sub != "validate" && sub != "run" && sub != "sweep" {
		return fmt.Errorf("unknown scenario subcommand %q\n%s", sub, usage)
	}
	fs := newFlagSet("scenario " + sub)
	var (
		domain     = fs.String("domain", "", "simulation domain (fills a spec without one; must match a spec that declares one)")
		checkpoint = fs.String("checkpoint", "", "sweep only: persist completed (cell, replica) results under this directory and resume from them")
		workers    = fs.String("workers", "", "sweep only: comma-separated worker addresses (host:port); the sweep executes across them, byte-identically")
	)
	o := runOpts{name: "scenario " + sub, info: os.Stderr}
	o.bind(fs, "base seed override (default: the spec's seed)", "replicas per scenario (default: the spec's replicas)", "text", "json", "csv")
	paths, err := o.parse(fs, args[1:])
	if err != nil {
		return err
	}
	if len(paths) != 1 {
		return fmt.Errorf("scenario %s wants exactly one spec file, got %d\n%s", sub, len(paths), usage)
	}
	if *checkpoint != "" && sub != "sweep" {
		return fmt.Errorf("--checkpoint applies to 'scenario sweep' only")
	}
	if *workers != "" && sub != "sweep" {
		return fmt.Errorf("--workers applies to 'scenario sweep' only")
	}
	if *workers != "" && o.traceDir != "" {
		return fmt.Errorf("--workers and --trace-dir are mutually exclusive (kernel events fire inside the worker processes, out of this process's tracer's reach)")
	}
	o.checkpoint, o.workers = *checkpoint, splitAddrs(*workers)

	spec, err := scenario.Load(paths[0])
	if err != nil {
		return err
	}
	if *domain != "" {
		if _, err := scenario.DomainByName(*domain); err != nil {
			return err
		}
		switch {
		case spec.Domain == "":
			spec.Domain = *domain
		case !strings.EqualFold(spec.Domain, *domain):
			return fmt.Errorf("scenario: spec %q declares domain %q but --domain %s was given",
				spec.Name, spec.Domain, *domain)
		}
	}

	switch sub {
	case "validate":
		cells, err := scenario.Expand(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ok: spec %q expands to %d scenario(s)\n", spec.Name, len(cells))
		return nil
	case "run":
		single, err := scenario.Single(spec)
		if err != nil {
			return err
		}
		return runSweep(w, o, spec, []scenario.Scenario{*single})
	default:
		cells, err := scenario.Expand(spec)
		if err != nil {
			return err
		}
		return runSweep(w, o, spec, cells)
	}
}
