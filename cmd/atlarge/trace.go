package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"atlarge"
	"atlarge/internal/obs"
	"atlarge/internal/scenario"
)

// runTrace implements `atlarge trace`: run one experiment or one scenario
// cell sequentially with the kernel tracer and executor spans attached,
// write the capture as NDJSON and Chrome trace-event JSON, and print the
// per-event-name profile. `--validate FILE` instead checks an existing
// Chrome trace file and exits.
func runTrace(w io.Writer, args []string) error {
	usage := "usage: atlarge trace <experiment-id> [flags] | atlarge trace --spec FILE [--cell ID] [flags] | atlarge trace --validate FILE"
	fs := newFlagSet("trace")
	var (
		specPath = fs.String("spec", "", "scenario spec file: trace one cell of its sweep (see --cell)")
		cell     = fs.String("cell", "", "cell ID within --spec's sweep (defaults to the only cell; errors list the choices)")
		seed     = fs.Int64("seed", 42, "base seed (--spec default: the spec's seed)")
		dir      = fs.String("dir", "trace-out", "output directory for trace.ndjson and trace.json")
		wall     = fs.Bool("wall", false, "include wall-clock fields: handler ns, worker spans (nondeterministic across runs)")
		events   = fs.Int("events", 0, "per-kernel trace record cap (0 = 65536); later records are counted as dropped")
		validate = fs.String("validate", "", "validate FILE as Chrome trace-event JSON and exit")
		timeout  = fs.Duration("timeout", 0, "abort the traced run after this duration (0 = no limit)")
	)
	targets, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	if *validate != "" {
		if len(targets) > 0 || *specPath != "" {
			return fmt.Errorf("--validate takes no other target\n%s", usage)
		}
		if err := obs.ValidateChromeFile(*validate); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok: %s is well-formed Chrome trace JSON (monotone per-track timestamps)\n", *validate)
		return nil
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	// Capture every kernel created during the run; attribution happens
	// afterwards via the derived per-task seeds.
	col := &obs.Collector{MaxEvents: *events}
	restore := col.Install()
	defer restore()
	spans := &obs.SpanLog{}

	var tr *obs.Trace
	switch {
	case *specPath != "":
		if len(targets) > 0 {
			return fmt.Errorf("--spec and a positional experiment are mutually exclusive\n%s", usage)
		}
		tr, err = traceCell(ctx, *specPath, *cell, seedSet, *seed, col, spans)
	case len(targets) == 1:
		if *cell != "" {
			return fmt.Errorf("--cell requires --spec\n%s", usage)
		}
		tr, err = traceExperiment(ctx, targets[0], *seed, col, spans)
	default:
		return fmt.Errorf("trace wants exactly one experiment ID or --spec FILE, got %d targets\n%s", len(targets), usage)
	}
	if err != nil {
		return err
	}
	tr.Wall = *wall

	if err := writeTraceFiles(w, tr, *dir); err != nil {
		return err
	}
	rep := atlarge.NewReport("trace", "trace profile: "+tr.Target)
	rep.Tables = append(rep.Tables, obs.ProfileTable(obs.MergeProfiles(tr.Sections), *wall))
	if streams := obs.MergeStreams(tr.Sections); len(streams) > 0 {
		rep.Tables = append(rep.Tables, obs.StreamTable(streams))
	}
	return rep.WriteText(w, "  ")
}

// traceCell runs one cell of a scenario spec (single replica, sequential)
// under the installed collector and returns the attributed trace.
func traceCell(ctx context.Context, path, cellID string, seedSet bool, seed int64, col *obs.Collector, spans *obs.SpanLog) (*obs.Trace, error) {
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		return nil, err
	}
	var picked *scenario.Scenario
	switch {
	case cellID == "" && len(cells) == 1:
		picked = &cells[0]
	case cellID == "":
		ids := make([]string, len(cells))
		for i := range cells {
			ids[i] = cells[i].ID()
		}
		return nil, fmt.Errorf("spec %q expands to %d cells; pick one with --cell:\n  %s",
			spec.Name, len(cells), strings.Join(ids, "\n  "))
	default:
		for i := range cells {
			if cells[i].ID() == cellID {
				picked = &cells[i]
				break
			}
		}
		if picked == nil {
			ids := make([]string, len(cells))
			for i := range cells {
				ids[i] = cells[i].ID()
			}
			return nil, fmt.Errorf("no cell %q in spec %q; available:\n  %s",
				cellID, spec.Name, strings.Join(ids, "\n  "))
		}
	}

	opt := scenario.Options{Replicas: 1, Parallelism: 1, SpanObserver: spans.Observe}
	if seedSet {
		opt.Seed = &seed
	}
	effSeed, _ := scenario.Effective(spec, opt)
	one := []scenario.Scenario{*picked}
	if _, err := scenario.Run(ctx, spec, one, opt); err != nil {
		return nil, err
	}
	id := picked.ID()
	tasks := map[int64]obs.TaskRef{
		atlarge.DeriveSeed(effSeed, id, 0): {Index: 0, ID: id + "#0"},
	}
	return &obs.Trace{Target: id, Seed: effSeed, Sections: col.Sections(tasks), Spans: spans.Sorted()}, nil
}

// traceExperiment runs one catalog experiment (single replica, sequential)
// under the installed collector and returns the attributed trace.
func traceExperiment(ctx context.Context, id string, seed int64, col *obs.Collector, spans *obs.SpanLog) (*obs.Trace, error) {
	runner := &atlarge.Runner{Parallelism: 1, Replicas: 1, SpanObserver: spans.Observe}
	if _, err := runner.RunContext(ctx, []string{id}, seed); err != nil {
		return nil, err
	}
	return &obs.Trace{
		Target:   id,
		Seed:     seed,
		Sections: col.Sections(taskSeedMap(seed, []string{id}, 1)),
		Spans:    spans.Sorted(),
	}, nil
}

// taskSeedMap computes the seed → task attribution for a plan of (id,
// replica) tasks in experiment-major order, mirroring the runner's layout.
func taskSeedMap(baseSeed int64, ids []string, replicas int) map[int64]obs.TaskRef {
	if replicas <= 0 {
		replicas = 1
	}
	tasks := make(map[int64]obs.TaskRef, len(ids)*replicas)
	for i, id := range ids {
		for k := 0; k < replicas; k++ {
			tasks[atlarge.DeriveSeed(baseSeed, id, k)] = obs.TaskRef{
				Index: i*replicas + k,
				ID:    id + "#" + strconv.Itoa(k),
			}
		}
	}
	return tasks
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
