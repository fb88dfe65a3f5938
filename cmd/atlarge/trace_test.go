package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlarge/internal/obs"
)

// traceTo runs `atlarge trace` into dir and returns its stdout.
func traceTo(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runTo(&buf, append([]string{"trace"}, args...)); err != nil {
		t.Fatalf("trace %v: %v", args, err)
	}
	return buf.String()
}

func TestTraceExperiment(t *testing.T) {
	dir := t.TempDir()
	out := traceTo(t, "tab7", "--seed", "7", "--dir", dir)

	nd, err := os.ReadFile(filepath.Join(dir, "trace.ndjson"))
	if err != nil {
		t.Fatalf("trace.ndjson: %v", err)
	}
	if !bytes.Contains(nd, []byte(`"type":"meta"`)) || !bytes.Contains(nd, []byte(`"type":"event"`)) {
		t.Errorf("NDJSON missing sections:\n%.300s", nd)
	}
	if err := obs.ValidateChromeFile(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("trace.json invalid: %v", err)
	}
	for _, want := range []string{"trace tab7", "perfetto", "event"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceDeterministicReruns pins the trace contract for an experiment
// and a scenario cell: tracing the same target twice yields byte-identical
// virtual-time artifacts, and trace.json is a valid Chrome trace.
func TestTraceDeterministicReruns(t *testing.T) {
	for _, target := range [][]string{
		{"tab7", "--seed", "7"},
		{"--spec", exampleSweepSpec, "--cell", "policy-vs-load/load=0.7,policy=sjf"},
	} {
		d1, d2 := t.TempDir(), t.TempDir()
		traceTo(t, append(target, "--dir", d1)...)
		traceTo(t, append(target, "--dir", d2)...)
		for _, name := range []string{"trace.ndjson", "trace.json"} {
			a, err := os.ReadFile(filepath.Join(d1, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(d2, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("trace %v: %s differs between identical traced runs", target, name)
			}
		}
		if err := obs.ValidateChromeFile(filepath.Join(d1, "trace.json")); err != nil {
			t.Errorf("trace %v: trace.json invalid: %v", target, err)
		}
	}
}

func TestTraceScenarioCell(t *testing.T) {
	dir := t.TempDir()
	out := traceTo(t, "--spec", exampleSweepSpec,
		"--cell", "policy-vs-load/load=0.7,policy=sjf", "--dir", dir)
	if !strings.Contains(out, "policy-vs-load/load=0.7,policy=sjf") {
		t.Errorf("cell ID missing from output:\n%s", out)
	}
	if err := obs.ValidateChromeFile(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("trace.json invalid: %v", err)
	}

	// Validate mode re-checks the artifact we just wrote.
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"trace", "--validate", filepath.Join(dir, "trace.json")}); err != nil {
		t.Fatalf("--validate: %v", err)
	}
	if !strings.Contains(buf.String(), "ok:") {
		t.Errorf("validate output: %q", buf.String())
	}
}

func TestTraceUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"trace"}); err == nil {
		t.Error("bare trace accepted")
	}
	if err := runTo(&buf, []string{"trace", "fig9", "bdc"}); err == nil {
		t.Error("two targets accepted")
	}
	if err := runTo(&buf, []string{"trace", "fig9", "--cell", "x"}); err == nil {
		t.Error("--cell without --spec accepted")
	}
	if err := runTo(&buf, []string{"trace", "--spec", exampleSweepSpec, "fig9"}); err == nil {
		t.Error("--spec plus positional accepted")
	}
	// A multi-cell spec without --cell lists the available IDs.
	err := runTo(&buf, []string{"trace", "--spec", exampleSweepSpec, "--dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "policy-vs-load/load=0.5,policy=sjf") {
		t.Errorf("multi-cell error does not list cells: %v", err)
	}
}

// smallSweepSpec is a 2-cell sweep at 2 replicas, small enough that its
// trace stays a few hundred kilobytes.
const smallSweepSpec = `{"version": 1, "name": "trace-test",
	"workload": {"class": "scientific", "jobs": 12},
	"cluster": {"kind": "CL", "machines": 4, "cores": 4},
	"replicas": 2, "seed": 42, "sweep": {"policy": ["sjf", "fcfs"]}}`

// writeSpec writes src to a spec file in a fresh temp dir.
func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceFiles runs the atlarge command args, which write a trace under dir,
// checks that the trace holds kernels and wantSpans task spans and that
// trace.json is a valid Chrome trace, and returns trace.ndjson and
// trace.json.
func traceFiles(t *testing.T, dir string, wantSpans int, args ...string) (ndjson, chrome []byte) {
	t.Helper()
	if err := runTo(&bytes.Buffer{}, args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	ndjson, err := os.ReadFile(filepath.Join(dir, "trace.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	chrome, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct{ Kernels, Spans int }
	first, _, _ := bytes.Cut(ndjson, []byte("\n"))
	if err := json.Unmarshal(first, &meta); err != nil {
		t.Fatalf("%v: meta line %q: %v", args, first, err)
	}
	if meta.Kernels == 0 || meta.Spans != wantSpans {
		t.Errorf("%v: trace holds %d kernel(s) and %d span(s), want kernels and %d span(s)", args, meta.Kernels, meta.Spans, wantSpans)
	}
	if err := obs.ValidateChrome(bytes.NewReader(chrome)); err != nil {
		t.Errorf("%v: trace.json invalid: %v", args, err)
	}
	return ndjson, chrome
}

// TestRunTraceParallelParity: `run --trace-dir` writes byte-identical
// traces at --parallel 1 and 4. The two experiments run side by side at
// --parallel 4.
func TestRunTraceParallelParity(t *testing.T) {
	trace := func(parallel string) ([]byte, []byte) {
		dir := t.TempDir()
		return traceFiles(t, dir, 2, "run", "tab6", "tab7", "--parallel", parallel, "--trace-dir", dir)
	}
	nd1, ch1 := trace("1")
	nd4, ch4 := trace("4")
	if !bytes.Equal(nd1, nd4) || !bytes.Equal(ch1, ch4) {
		t.Error("run trace differs between --parallel 1 and --parallel 4")
	}
}

// TestScenarioSweepTraceParallelParity: `scenario sweep --trace-dir` writes
// byte-identical traces at --parallel 1 and 4.
func TestScenarioSweepTraceParallelParity(t *testing.T) {
	spec := writeSpec(t, smallSweepSpec)
	trace := func(parallel string) ([]byte, []byte) {
		dir := t.TempDir()
		return traceFiles(t, dir, 4, "scenario", "sweep", spec, "--parallel", parallel, "--trace-dir", dir)
	}
	nd1, ch1 := trace("1")
	nd4, ch4 := trace("4")
	if !bytes.Equal(nd1, nd4) || !bytes.Equal(ch1, ch4) {
		t.Error("sweep trace differs between --parallel 1 and --parallel 4")
	}
}

// TestTraceIsRunShorthand: `trace <exp>` writes the files of `run <exp>
// --parallel 1 --trace-dir`.
func TestTraceIsRunShorthand(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ndA, chA := traceFiles(t, a, 1, "trace", "tab7", "--dir", a)
	ndB, chB := traceFiles(t, b, 1, "run", "tab7", "--parallel", "1", "--trace-dir", b)
	if !bytes.Equal(ndA, ndB) || !bytes.Equal(chA, chB) {
		t.Error("trace tab7 differs from run tab7 --parallel 1 --trace-dir")
	}
}

// TestTraceCellMatchesSweep: the kernel lines of `trace --spec F --cell C`
// are task C#0's kernel lines in the trace of `scenario sweep F`.
func TestTraceCellMatchesSweep(t *testing.T) {
	spec := writeSpec(t, smallSweepSpec)
	cell := "trace-test/policy=sjf"
	a, b := t.TempDir(), t.TempDir()
	ndCell, _ := traceFiles(t, a, 1, "trace", "--spec", spec, "--cell", cell, "--dir", a)
	ndSweep, _ := traceFiles(t, b, 4, "scenario", "sweep", spec, "--trace-dir", b)
	got, want := kernelLines(ndCell, cell+"#0"), kernelLines(ndSweep, cell+"#0")
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("trace --cell kernel lines (%d bytes) differ from the sweep's %s#0 lines (%d bytes)", len(got), cell, len(want))
	}
}

// kernelLines returns the kernel and event lines of task's kernels in an
// NDJSON trace.
func kernelLines(ndjson []byte, task string) []byte {
	var out []byte
	in := false
	for _, line := range bytes.SplitAfter(ndjson, []byte("\n")) {
		var l struct{ Type, Task string }
		if err := json.Unmarshal(line, &l); err != nil {
			continue
		}
		if l.Type != "event" {
			in = l.Type == "kernel" && l.Task == task
		}
		if in {
			out = append(out, line...)
		}
	}
	return out
}
