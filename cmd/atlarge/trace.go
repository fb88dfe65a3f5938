package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"atlarge"
	"atlarge/internal/exec"
	"atlarge/internal/obs"
	"atlarge/internal/scenario"
)

// runTrace implements `atlarge trace`, the traced single run: `trace <exp>`
// is `run <exp> --parallel 1 --replicas 1 --trace-dir DIR` and `trace
// --spec F --cell C` is `scenario sweep F --parallel 1 --replicas 1
// --trace-dir DIR` over the one cell C, each with the report left out and
// the trace summary and profile tables on stdout. `--validate FILE`
// instead checks an existing Chrome trace file and exits.
func runTrace(w io.Writer, args []string) error {
	usage := "usage: atlarge trace <experiment-id> [flags] | atlarge trace --spec FILE [--cell ID] [flags] | atlarge trace --validate FILE"
	fs := newFlagSet("trace")
	var (
		specPath = fs.String("spec", "", "scenario spec file: trace one cell of its sweep (see --cell)")
		cell     = fs.String("cell", "", "cell ID within --spec's sweep (defaults to the only cell; errors list the choices)")
		validate = fs.String("validate", "", "validate FILE as Chrome trace-event JSON and exit")
	)
	o := runOpts{name: "trace", parallel: 1, replicas: 1, info: w}
	fs.Int64Var(&o.seed, "seed", 42, "base seed (--spec default: the spec's seed)")
	fs.StringVar(&o.traceDir, "dir", "trace-out", "output directory for trace.ndjson and trace.json")
	fs.BoolVar(&o.traceWall, "wall", false, "include wall-clock fields: handler ns, worker spans (nondeterministic across runs)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the traced run after this duration (0 = no limit)")
	targets, err := o.parse(fs, args)
	if err != nil {
		return err
	}
	switch {
	case *validate != "":
		if len(targets) > 0 || *specPath != "" {
			return fmt.Errorf("--validate takes no other target\n%s", usage)
		}
		if err := obs.ValidateChromeFile(*validate); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok: %s is well-formed Chrome trace JSON (monotone per-track timestamps)\n", *validate)
		return nil
	case *specPath != "":
		if len(targets) > 0 {
			return fmt.Errorf("--spec and a positional experiment are mutually exclusive\n%s", usage)
		}
		spec, err := scenario.Load(*specPath)
		if err != nil {
			return err
		}
		picked, err := pickCell(spec, *cell)
		if err != nil {
			return err
		}
		return runSweep(w, o, spec, []scenario.Scenario{picked})
	case len(targets) == 1:
		if *cell != "" {
			return fmt.Errorf("--cell requires --spec\n%s", usage)
		}
		return runExperiments(w, o, targets)
	default:
		return fmt.Errorf("trace wants exactly one experiment ID or --spec FILE, got %d targets\n%s", len(targets), usage)
	}
}

// pickCell returns the cell of spec's sweep named id, or its only cell when
// id is empty; otherwise the error lists the cells to choose from.
func pickCell(spec *scenario.Spec, id string) (scenario.Scenario, error) {
	cells, err := scenario.Expand(spec)
	if err != nil {
		return scenario.Scenario{}, err
	}
	ids := make([]string, len(cells))
	for i := range cells {
		if ids[i] = cells[i].ID(); ids[i] == id || (id == "" && len(cells) == 1) {
			return cells[i], nil
		}
	}
	if id == "" {
		return scenario.Scenario{}, fmt.Errorf("spec %q expands to %d cells; pick one with --cell:\n  %s",
			spec.Name, len(cells), strings.Join(ids, "\n  "))
	}
	return scenario.Scenario{}, fmt.Errorf("no cell %q in spec %q; available:\n  %s",
		id, spec.Name, strings.Join(ids, "\n  "))
}

// spanObserver receives executor task spans; see atlarge.Runner.SpanObserver.
type spanObserver = func(index int, id string, span exec.TaskSpan, err error)

// capture runs work and, when o.traceDir is set, traces it: an
// obs.Collector records every kernel created meanwhile and an obs.SpanLog
// every task span, attributed to the plan of ids × replicas under seed.
// It writes trace.ndjson and trace.json under o.traceDir and prints the
// trace summary and the kernel-event and RNG-stream profile tables to
// o.info. Without a trace dir, work runs with a nil observer.
func (o *runOpts) capture(target string, seed int64, ids []string, replicas int, work func(observe spanObserver) error) error {
	if o.traceDir == "" {
		return work(nil)
	}
	col := &obs.Collector{}
	restore := col.Install()
	defer restore()
	spans := &obs.SpanLog{}
	if err := work(spans.Observe); err != nil {
		return err
	}
	tr := &obs.Trace{
		Target:   target,
		Seed:     seed,
		Sections: col.Sections(seed, ids, replicas),
		Spans:    spans.Sorted(),
		Wall:     o.traceWall,
	}
	if err := writeTraceFiles(o.info, tr, o.traceDir); err != nil {
		return err
	}
	rep := atlarge.NewReport("trace", "trace profile: "+target)
	rep.Tables = append(rep.Tables, obs.ProfileTable(obs.MergeProfiles(tr.Sections), o.traceWall))
	if streams := obs.MergeStreams(tr.Sections); len(streams) > 0 {
		rep.Tables = append(rep.Tables, obs.StreamTable(streams))
	}
	return rep.WriteText(o.info, "  ")
}

// writeTraceFiles writes trace.ndjson and trace.json (Chrome trace-event
// JSON) under dir, creating it as needed, and prints where they went.
func writeTraceFiles(w io.Writer, tr *obs.Trace, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ndPath := filepath.Join(dir, "trace.ndjson")
	chromePath := filepath.Join(dir, "trace.json")
	if err := writeTo(ndPath, tr.WriteNDJSON); err != nil {
		return err
	}
	if err := writeTo(chromePath, tr.WriteChrome); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: %d kernel(s), %d span(s), seed %d\n  %s\n  %s (load in ui.perfetto.dev)\n",
		tr.Target, len(tr.Sections), len(tr.Spans), tr.Seed, ndPath, chromePath)
	return nil
}

// writeTo streams write into path through a temp-free direct create (traces
// are derived artifacts; a partial file from a crash is simply regenerated).
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
