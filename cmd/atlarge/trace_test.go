package main

import (
	"bytes"
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
