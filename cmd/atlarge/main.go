// Command atlarge reproduces the paper's tables and figures and runs
// declarative what-if scenarios.
//
// Usage:
//
//	atlarge list [-tag T] [--domains] [--format text|json]
//	atlarge run [experiment ...] [--all] [--seed N] [--parallel P] [--replicas R] [--format text|json] [--progress] [--timeout D] [--trace-dir DIR] [--trace-wall]
//	atlarge serve [--addr HOST:PORT] [--parallel P] [--rate R] [--burst B] [--queue-depth Q] [--max-jobs J] [--state-dir DIR] [--workers H1,H2] [--pprof] [--kernel-profile]
//	atlarge worker [--listen HOST:PORT] [--parallel P]
//	atlarge trace <experiment-id> [--seed N] [--dir DIR] [--wall] [--events N]
//	atlarge trace --spec <spec.json> [--cell ID] [--seed N] [--dir DIR] [--wall] [--events N]
//	atlarge trace --validate <trace.json>
//	atlarge scenario validate <spec.json> [--domain D]
//	atlarge scenario run <spec.json> [--domain D] [--seed N] [--parallel P] [--replicas R] [--format text|json|csv] [--progress] [--timeout D]
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
// worker pool) after a duration.
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
// trace runs one experiment or one scenario cell sequentially with the
// kernel tracer and executor task spans attached, writes the capture as
// NDJSON (trace.ndjson) and Chrome trace-event JSON (trace.json, loadable in
// ui.perfetto.dev), and prints the per-event-name profile. Virtual-time
// fields are deterministic — two traced runs of the same target and seed
// produce byte-identical files; --wall opts into the nondeterministic
// wall-clock fields (handler ns, worker spans). The same capture rides along
// full runs via --trace-dir on `run` and `scenario sweep`, where traces stay
// byte-identical at any --parallel. `trace --validate FILE` checks an
// existing Chrome trace file (well-formed, monotone per-track timestamps).
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
	"errors"
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
	"atlarge/internal/obs"
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
		return fmt.Errorf("usage: atlarge <list|run|serve|worker|scenario> [args] (see 'go doc atlarge/cmd/atlarge')")
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
		var (
			all       = fs.Bool("all", false, "run the full experiment catalog")
			seed      = fs.Int64("seed", 42, "base seed for per-experiment seed derivation")
			parallel  = fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
			replicas  = fs.Int("replicas", 1, "replicas per experiment, aggregated as mean±95% CI")
			format    = fs.String("format", "text", "output format: text or json")
			progress  = fs.Bool("progress", false, "live task ticker on stderr: completions, tasks/sec, queue depth")
			timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
			traceDir  = fs.String("trace-dir", "", "capture kernel traces and task spans, written as trace.ndjson + trace.json under DIR")
			traceWall = fs.Bool("trace-wall", false, "include nondeterministic wall-clock fields in the captured trace")
		)
		ids, err := parseInterleaved(fs, args[1:])
		if err != nil {
			return err
		}
		if *format != "text" && *format != "json" {
			return fmt.Errorf("unknown format %q (want text or json)", *format)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			*all = true
		}
		if len(ids) == 0 {
			*all = true
		}
		if *all {
			ids = atlarge.Experiments()
		}

		ctx, cancel := withTimeout(*timeout)
		defer cancel()
		runner := &atlarge.Runner{Parallelism: *parallel, Replicas: *replicas}
		if *progress {
			stats := &exec.Stats{}
			runner.Stats = stats
			runner.Progress = progressLine(os.Stderr, "run", stats)
		}
		var col *obs.Collector
		var spans *obs.SpanLog
		if *traceDir != "" {
			col = &obs.Collector{}
			restore := col.Install()
			defer restore()
			spans = &obs.SpanLog{}
			runner.SpanObserver = spans.Observe
		}
		results, err := runner.RunContext(ctx, ids, *seed)
		if err != nil {
			// The joined error is preserved: it names any experiment that
			// genuinely failed before the deadline, not just the timeout.
			if ctx.Err() != nil {
				return fmt.Errorf("run aborted after --timeout %v: %w", *timeout, err)
			}
			return err
		}
		if col != nil {
			tr := &obs.Trace{
				Target:   "run",
				Seed:     *seed,
				Sections: col.Sections(taskSeedMap(*seed, ids, *replicas)),
				Spans:    spans.Sorted(),
				Wall:     *traceWall,
			}
			if err := writeTraceFiles(os.Stderr, tr, *traceDir); err != nil {
				return err
			}
		}
		if *format == "json" {
			return atlarge.NewRunDocument(*seed, results).WriteJSON(w)
		}
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
		return nil
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

// runScenario dispatches the scenario subcommands: validate, run, sweep.
func runScenario(w io.Writer, args []string) error {
	usage := "usage: atlarge scenario <validate|run|sweep> <spec.json> [--domain D] [--seed N] [--parallel P] [--replicas R] [--format text|json|csv] [--progress] [--timeout D] [sweep: --checkpoint DIR --workers H1,H2 --trace-dir DIR --trace-wall]"
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
		seed       = fs.Int64("seed", 0, "base seed override (default: the spec's seed)")
		parallel   = fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		replicas   = fs.Int("replicas", 0, "replicas per scenario (default: the spec's replicas)")
		format     = fs.String("format", "text", "output format: text, json, or csv")
		progress   = fs.Bool("progress", false, "live task ticker on stderr: completions, tasks/sec, queue depth")
		timeout    = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		checkpoint = fs.String("checkpoint", "", "sweep only: persist completed (cell, replica) results under this directory and resume from them")
		workers    = fs.String("workers", "", "sweep only: comma-separated worker addresses (host:port); the sweep executes across them, byte-identically")
		traceDir   = fs.String("trace-dir", "", "sweep only: capture kernel traces and task spans, written as trace.ndjson + trace.json under DIR")
		traceWall  = fs.Bool("trace-wall", false, "include nondeterministic wall-clock fields in the captured trace")
	)
	paths, err := parseInterleaved(fs, args[1:])
	if err != nil {
		return err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if len(paths) != 1 {
		return fmt.Errorf("scenario %s wants exactly one spec file, got %d\n%s", sub, len(paths), usage)
	}
	if *format != "text" && *format != "json" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text, json, or csv)", *format)
	}
	if *checkpoint != "" && sub != "sweep" {
		return fmt.Errorf("--checkpoint applies to 'scenario sweep' only")
	}
	if *traceDir != "" && sub != "sweep" {
		return fmt.Errorf("--trace-dir applies to 'scenario sweep' only")
	}
	if *workers != "" && sub != "sweep" {
		return fmt.Errorf("--workers applies to 'scenario sweep' only")
	}
	if *workers != "" && *traceDir != "" {
		return fmt.Errorf("--workers and --trace-dir are mutually exclusive (kernel events fire inside the worker processes, out of this process's tracer's reach)")
	}

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
	case "run", "sweep":
		var cells []scenario.Scenario
		if sub == "run" {
			single, err := scenario.Single(spec)
			if err != nil {
				return err
			}
			cells = []scenario.Scenario{*single}
		} else {
			if cells, err = scenario.Expand(spec); err != nil {
				return err
			}
		}
		opt := scenario.Options{Replicas: *replicas, Parallelism: *parallel, Checkpoint: *checkpoint}
		if seedSet {
			opt.Seed = seed
		}
		if *progress {
			stats := &exec.Stats{}
			opt.Stats = stats
			opt.Progress = progressLine(os.Stderr, "scenario "+sub, stats)
		}
		var col *obs.Collector
		var spans *obs.SpanLog
		if *traceDir != "" {
			col = &obs.Collector{}
			restore := col.Install()
			defer restore()
			spans = &obs.SpanLog{}
			opt.SpanObserver = spans.Observe
		}
		ctx, cancel := withTimeout(*timeout)
		defer cancel()
		var dstats *dist.Stats
		if *workers != "" {
			clients, err := dist.DialAll(ctx, splitAddrs(*workers))
			if err != nil {
				return err
			}
			dstats = &dist.Stats{}
			if err := scenario.Distribute(&opt, spec, clients, dstats); err != nil {
				return err
			}
		}
		rep, err := scenario.Run(ctx, spec, cells, opt)
		if dstats != nil {
			if n := dstats.Redispatched(); n > 0 {
				fmt.Fprintf(os.Stderr, "scenario %s: %d task(s) re-dispatched after lost worker claims\n", sub, n)
			}
		}
		if err != nil {
			if *timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("scenario %s aborted after --timeout %v: %w", sub, *timeout, err)
			}
			return err
		}
		if col != nil {
			effSeed, effReplicas := scenario.Effective(spec, opt)
			ids := make([]string, len(cells))
			for i := range cells {
				ids[i] = cells[i].ID()
			}
			tr := &obs.Trace{
				Target:   spec.Name,
				Seed:     effSeed,
				Sections: col.Sections(taskSeedMap(effSeed, ids, effReplicas)),
				Spans:    spans.Sorted(),
				Wall:     *traceWall,
			}
			if err := writeTraceFiles(os.Stderr, tr, *traceDir); err != nil {
				return err
			}
		}
		switch *format {
		case "json":
			return rep.WriteJSON(w)
		case "csv":
			return rep.WriteCSV(w)
		default:
			return rep.WriteText(w)
		}
	default:
		return fmt.Errorf("unknown scenario subcommand %q\n%s", sub, usage)
	}
}
