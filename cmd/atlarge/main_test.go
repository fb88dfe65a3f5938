package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlarge"
	"atlarge/internal/api"
)

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"run", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"run", "fig9", "--format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	ids := strings.Fields(buf.String())
	if len(ids) != 12 || ids[0] != "fig1" || ids[len(ids)-1] != "bdc" {
		t.Errorf("list = %v", ids)
	}
	buf.Reset()
	if err := runTo(&buf, []string{"list", "-tag", "slow"}); err != nil {
		t.Fatalf("list -tag: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "tab9" {
		t.Errorf("list -tag slow = %q, want tab9", got)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"run", "fig9", "-seed", "7"}); err != nil {
		t.Fatalf("run fig9: %v", err)
	}
}

// TestRunInterleavedFlags pins that ids may appear between and after flags.
func TestRunInterleavedFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"run", "--seed", "7", "fig9", "--format", "json", "bdc"}); err != nil {
		t.Fatalf("interleaved: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"id": "fig9"`) || !strings.Contains(out, `"id": "bdc"`) {
		t.Errorf("interleaved ids not run:\n%s", out)
	}
	if !strings.Contains(out, `"seed": 7`) {
		t.Errorf("seed flag lost:\n%s", out)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	args := func(parallel string) []string {
		return []string{"run", "fig7", "fig9", "bdc", "--seed", "11", "--replicas", "2", "--parallel", parallel, "--format", "json"}
	}
	var seq, par bytes.Buffer
	if err := runTo(&seq, args("1")); err != nil {
		t.Fatal(err)
	}
	if err := runTo(&par, args("8")); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Error("parallel JSON differs from sequential")
	}
	var out atlarge.RunDocument
	if err := json.Unmarshal(seq.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out.Seed != 11 || len(out.Experiments) != 3 {
		t.Fatalf("unexpected shape: %+v", out)
	}
	ciSeen := false // fig9 is seed-independent; fig7 and bdc vary
	for _, e := range out.Experiments {
		if e.Replicas != 2 || e.Report == nil || e.Aggregate == nil {
			t.Errorf("experiment %s incomplete: %+v", e.ID, e)
			continue
		}
		if len(e.Report.Metrics) == 0 {
			t.Errorf("experiment %s has no typed metrics", e.ID)
		}
		for _, m := range e.Aggregate.Metrics {
			if m.CI95 != 0 {
				ciSeen = true
			}
		}
	}
	if !ciSeen {
		t.Error("no aggregate metric carries a CI")
	}
}

func TestRunTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"run", "fig9"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== fig9: Figure 9") {
		t.Errorf("text header missing:\n%s", buf.String())
	}
}

func TestListJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"list", "--format", "json"}); err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		ID    string   `json:"id"`
		Title string   `json:"title"`
		Tags  []string `json:"tags"`
		Order int      `json:"order"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(entries) != 12 {
		t.Fatalf("got %d entries, want 12", len(entries))
	}
	if entries[0].ID != "fig1" || entries[0].Title == "" || len(entries[0].Tags) == 0 {
		t.Errorf("first entry incomplete: %+v", entries[0])
	}
	buf.Reset()
	if err := runTo(&buf, []string{"list", "-tag", "no-such-tag", "--format", "json"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty filter should emit [], got %q", got)
	}
	if err := runTo(&buf, []string{"list", "--format", "yaml"}); err == nil {
		t.Error("unknown list format accepted")
	}
}

const exampleSweepSpec = "../../examples/scenarios/policy-vs-load.json"

func TestScenarioValidate(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"scenario", "validate", exampleSweepSpec}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(buf.String(), "expands to 9 scenario(s)") {
		t.Errorf("validate output: %q", buf.String())
	}
}

func TestScenarioValidateRejectsMalformed(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"version": 1, "name": "x", "workload": {"class": "hpc"}, "policy": "heft"}`
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runTo(&bytes.Buffer{}, []string{"scenario", "validate", bad})
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	for _, want := range []string{"workload.class", "policy", "known:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

func TestScenarioUsageErrors(t *testing.T) {
	if err := runTo(&bytes.Buffer{}, []string{"scenario"}); err == nil {
		t.Error("bare scenario accepted")
	}
	if err := runTo(&bytes.Buffer{}, []string{"scenario", "frobnicate", exampleSweepSpec}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := runTo(&bytes.Buffer{}, []string{"scenario", "validate"}); err == nil {
		t.Error("missing spec path accepted")
	}
	if err := runTo(&bytes.Buffer{}, []string{"scenario", "sweep", exampleSweepSpec, "--format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
	// `run` on a sweep spec must point at `sweep`.
	err := runTo(&bytes.Buffer{}, []string{"scenario", "run", exampleSweepSpec})
	if err == nil || !strings.Contains(err.Error(), "scenario sweep") {
		t.Errorf("run on sweep spec: %v", err)
	}
}

// TestScenarioSweepParallelParity pins the acceptance criterion: the JSON
// report of the committed example sweep is byte-identical at --parallel 1
// and --parallel 8.
func TestScenarioSweepParallelParity(t *testing.T) {
	render := func(parallel string) string {
		var buf bytes.Buffer
		args := []string{"scenario", "sweep", exampleSweepSpec,
			"--replicas", "3", "--parallel", parallel, "--format", "json"}
		if err := runTo(&buf, args); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render("1") != render("8") {
		t.Error("sweep JSON differs between --parallel 1 and --parallel 8")
	}
}

func TestScenarioRunSingle(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "single.json")
	src := `{"version": 1, "name": "single", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 10}, "cluster": {"machines": 4}}`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"scenario", "run", spec, "--seed", "5", "--format", "csv"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "scenario,metric,mean,ci95\n") {
		t.Errorf("csv header: %q", out)
	}
	if !strings.Contains(out, "single,mean_response_s,") {
		t.Errorf("csv missing response metric:\n%s", out)
	}
}

// TestBareDashIsPositional pins that a bare "-" argument terminates (it used
// to spin forever: flag.Parse stops at "-" without consuming it).
func TestBareDashIsPositional(t *testing.T) {
	if err := runTo(&bytes.Buffer{}, []string{"run", "-"}); err == nil {
		t.Error(`bare "-" should be an unknown experiment`)
	}
	err := runTo(&bytes.Buffer{}, []string{"scenario", "validate", exampleSweepSpec, "-"})
	if err == nil || !strings.Contains(err.Error(), "exactly one spec file") {
		t.Errorf(`bare "-" should count as a second path: %v`, err)
	}
}

// TestDoubleDashTerminatesFlags pins the standard "--" escape: everything
// after it is positional, even when it starts with "-".
func TestDoubleDashTerminatesFlags(t *testing.T) {
	err := runTo(&bytes.Buffer{}, []string{"run", "--seed", "7", "--", "-weird-id"})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "-weird-id"`) {
		t.Errorf(`"--" did not make "-weird-id" positional: %v`, err)
	}
	err = runTo(&bytes.Buffer{}, []string{"scenario", "validate", "--", "-no-such-spec.json"})
	if err == nil || !strings.Contains(err.Error(), "-no-such-spec.json") {
		t.Errorf(`"--" did not make the spec path positional: %v`, err)
	}
}

// TestScenarioSubcommandCheckedFirst pins that a typoed subcommand is
// reported before any flag parsing or spec loading.
func TestScenarioSubcommandCheckedFirst(t *testing.T) {
	err := runTo(&bytes.Buffer{}, []string{"scenario", "sweeep", "/nonexistent.json"})
	if err == nil || !strings.Contains(err.Error(), `unknown scenario subcommand "sweeep"`) {
		t.Errorf("typoed subcommand not reported first: %v", err)
	}
}

// TestListDomains pins the domain catalog listing in both formats.
func TestListDomains(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"list", "--domains"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sched", "autoscale", "mmog", "axes:", "objective:"} {
		if !strings.Contains(out, want) {
			t.Errorf("list --domains missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := runTo(&buf, []string{"list", "--domains", "--format", "json"}); err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Name             string   `json:"name"`
		Axes             []string `json:"axes"`
		DefaultObjective string   `json:"default_objective"`
		Metrics          []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("list --domains --format json: %v\n%s", err, buf.String())
	}
	if len(entries) != 3 || entries[0].Name != "autoscale" {
		t.Fatalf("domain entries: %+v", entries)
	}
	if len(entries[0].Axes) == 0 || len(entries[0].Metrics) == 0 || entries[0].DefaultObjective == "" {
		t.Errorf("autoscale entry incomplete: %+v", entries[0])
	}
}

const (
	autoscaleSweepSpec = "../../examples/scenarios/autoscaler-vs-load.json"
	mmogSweepSpec      = "../../examples/scenarios/mmog-partitioners.json"
)

// TestScenarioDomainFlag pins the --domain semantics: it validates against
// the registry, fills a spec without a domain, passes when it matches the
// spec's declaration, and errors on a mismatch.
func TestScenarioDomainFlag(t *testing.T) {
	if err := runTo(&bytes.Buffer{}, []string{"scenario", "validate", autoscaleSweepSpec, "--domain", "autoscale"}); err != nil {
		t.Errorf("matching --domain rejected: %v", err)
	}
	err := runTo(&bytes.Buffer{}, []string{"scenario", "validate", autoscaleSweepSpec, "--domain", "mmog"})
	if err == nil || !strings.Contains(err.Error(), `declares domain "autoscale"`) {
		t.Errorf("mismatched --domain: %v", err)
	}
	err = runTo(&bytes.Buffer{}, []string{"scenario", "validate", autoscaleSweepSpec, "--domain", "serverless"})
	if err == nil || !strings.Contains(err.Error(), "unknown domain") {
		t.Errorf("unknown --domain: %v", err)
	}

	// A spec without a domain field (version 2) is completed by the flag.
	spec := filepath.Join(t.TempDir(), "nodomain.json")
	src := `{"version": 2, "name": "nd", "mmog": {"partitioner": "aos", "entities": 60, "ticks": 3}}`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTo(&bytes.Buffer{}, []string{"scenario", "validate", spec}); err == nil {
		t.Error("domain-less v2 spec accepted without --domain")
	}
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"scenario", "validate", spec, "--domain", "mmog"}); err != nil {
		t.Errorf("--domain fill failed: %v", err)
	}
}

// TestScenarioDomainSweepsParallelParity pins the acceptance criterion for
// the new domains: byte-identical JSON sweeps at --parallel 1 and 8.
func TestScenarioDomainSweepsParallelParity(t *testing.T) {
	for _, tc := range []struct{ spec, domain string }{
		{autoscaleSweepSpec, "autoscale"},
		{mmogSweepSpec, "mmog"},
	} {
		render := func(parallel string) string {
			var buf bytes.Buffer
			args := []string{"scenario", "sweep", tc.spec, "--domain", tc.domain,
				"--replicas", "2", "--parallel", parallel, "--format", "json"}
			if err := runTo(&buf, args); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		if render("1") != render("8") {
			t.Errorf("%s sweep JSON differs between --parallel 1 and --parallel 8", tc.domain)
		}
	}
}

// TestRunAllJSONParallelParity pins the acceptance criterion of the typed
// Results API: `run --all --format json` is byte-identical at --parallel 1
// and --parallel 8. Skipped in -short (the catalog includes the slow tab9).
func TestRunAllJSONParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog sweep is slow")
	}
	render := func(parallel string) string {
		var buf bytes.Buffer
		args := []string{"run", "--all", "--seed", "42", "--replicas", "2",
			"--parallel", parallel, "--format", "json"}
		if err := runTo(&buf, args); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render("1") != render("8") {
		t.Error("run --all JSON differs between --parallel 1 and --parallel 8")
	}
}

// TestCatalogGolden pins `list --format json` and the API's
// /v1/experiments over the default registry against the committed catalog
// golden, so the machine-readable catalog cannot drift silently. Regenerate
// it after an intentional catalog change with
// `go run ./cmd/atlarge list --format json > cmd/atlarge/testdata/catalog.golden.json`.
func TestCatalogGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "catalog.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runOut(t, "list", "--format", "json"); got != string(golden) {
		t.Errorf("catalog JSON differs from testdata/catalog.golden.json; regenerate it if the change is intentional:\n%s", got)
	}
	srv := httptest.NewServer(api.New(api.Config{}))
	defer srv.Close()
	if code, served := call(t, srv.URL+"/v1/experiments", ""); code != http.StatusOK || !bytes.Equal(served, golden) {
		t.Errorf("GET /v1/experiments (status %d) differs from testdata/catalog.golden.json:\n%s", code, served)
	}
}

// TestServeSubcommandFlagErrors keeps the serve flag set honest without
// binding a socket.
func TestServeSubcommandFlagErrors(t *testing.T) {
	if err := runTo(&bytes.Buffer{}, []string{"serve", "--bogus"}); err == nil {
		t.Error("unknown serve flag accepted")
	}
	if err := runTo(&bytes.Buffer{}, []string{"serve", "--addr", "256.0.0.1:bad"}); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// TestScenarioSweepCheckpointResume: a sweep with --checkpoint writes the
// run directory and a rerun over the warm directory yields byte-identical
// JSON to a cold run.
func TestScenarioSweepCheckpointResume(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "sweep.json")
	src := `{"version": 1, "name": "ckpt", "workload": {"class": "syn", "jobs": 8},
		"cluster": {"machines": 2}, "replicas": 2, "seed": 3,
		"sweep": {"policy": ["sjf", "fcfs"]}}`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	render := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"scenario", "sweep", spec, "--format", "json"}, extra...)
		if err := runTo(&buf, args); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cold := render()
	first := render("--checkpoint", dir)
	if first != cold {
		t.Error("checkpointed run differs from plain run")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "task-*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("run directory holds %d task files (err %v), want 4", len(files), err)
	}
	if resumed := render("--checkpoint", dir, "--parallel", "1"); resumed != cold {
		t.Error("resumed run differs from cold run")
	}
}

// TestScenarioCheckpointRequiresSweep: --checkpoint outside sweep errors.
func TestScenarioCheckpointRequiresSweep(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "single.json")
	src := `{"version": 1, "name": "single", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 4}}`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"scenario", "run", spec, "--checkpoint", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "--checkpoint") {
		t.Errorf("checkpoint on run accepted: %v", err)
	}
}

// TestRunTimeoutAborts: an already-expired --timeout aborts the run with a
// timeout error instead of running anything.
func TestRunTimeoutAborts(t *testing.T) {
	err := run([]string{"run", "fig9", "--timeout", "1ns"})
	if err == nil || !strings.Contains(err.Error(), "--timeout") {
		t.Errorf("timeout not surfaced: %v", err)
	}
}

// TestScenarioSweepTimeoutAborts: same for sweeps, which also name the
// checkpoint resume path when one is set.
func TestScenarioSweepTimeoutAborts(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"scenario", "sweep", exampleSweepSpec, "--timeout", "1ns", "--checkpoint", dir})
	if err == nil || !strings.Contains(err.Error(), "--timeout") {
		t.Errorf("timeout not surfaced: %v", err)
	}
}
