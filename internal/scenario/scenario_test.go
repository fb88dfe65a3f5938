package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlarge/internal/trace"
	"atlarge/internal/workload"
)

func specJSON(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

const validSweepSpec = `{
	"version": 1,
	"name": "t",
	"workload": {"class": "scientific", "jobs": 12},
	"cluster": {"kind": "CL", "machines": 4},
	"replicas": 2,
	"seed": 7,
	"sweep": {
		"policy": ["sjf", "fcfs"],
		"load": [0.5, 0.9]
	}
}`

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"version": 1, "name": "x", "polciy": "sjf"}`))
	if err == nil || !strings.Contains(err.Error(), "polciy") {
		t.Fatalf("typo field not rejected: %v", err)
	}
}

func TestValidateCollectsActionableErrors(t *testing.T) {
	s := specJSON(t, `{
		"version": 3,
		"name": "",
		"domain": "sched",
		"workload": {"class": "hpc", "jobs": -1, "load": -0.5,
			"arrival": {"process": "pareto"}},
		"cluster": {"kind": "edge", "cores": -2},
		"policy": "heft",
		"replicas": -1,
		"objective": "latency",
		"sweep": {"speed": [1], "load": [], "policy": ["sjf", "nope", 3], "jobs": [0.5]}
	}`)
	err := s.Validate()
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"version: got 3",
		"name: required",
		"workload.class",    // unknown class
		"known:",            // catalogs listed
		"workload.jobs",     // negative
		"workload.load",     // negative
		"workload.arrival",  // unknown process
		"cluster.kind",      // unknown kind
		"cluster.cores",     // negative
		"policy:",           // unknown policy
		"replicas",          // negative
		"objective",         // unknown metric
		"sweep.speed",       // unknown axis
		"sweep.load: empty", // empty axis
		"sweep.policy[1]",   // unknown swept policy
		"sweep.policy[2]",   // wrong type
		"sweep.jobs[0]",     // non-integer
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
}

func TestValidateAcceptsSweptPolicyWithoutBase(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t",
		"workload": {"class": "syn", "jobs": 5},
		"sweep": {"policy": ["sjf", "fcfs"]}
	}`)
	if err := s.Validate(); err != nil {
		t.Fatalf("spec with swept policy rejected: %v", err)
	}
}

func TestValidateRejectsDuplicateSweepValues(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 5},
		"sweep": {"load": [0.5, 0.5]}
	}`)
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate value") {
		t.Fatalf("duplicate sweep value accepted: %v", err)
	}
}

func TestExpandCrossProduct(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	// Axes expand in lexicographic name order: load before policy.
	wantIDs := []string{
		"t/load=0.5,policy=sjf",
		"t/load=0.5,policy=fcfs",
		"t/load=0.9,policy=sjf",
		"t/load=0.9,policy=fcfs",
	}
	for i, cell := range cells {
		if cell.ID() != wantIDs[i] {
			t.Errorf("cell %d ID = %q, want %q", i, cell.ID(), wantIDs[i])
		}
	}
	if cells[0].Policy != "sjf" || cells[1].Policy != "fcfs" {
		t.Errorf("policy not applied: %q, %q", cells[0].Policy, cells[1].Policy)
	}
	if cells[0].Workload.Load != 0.5 || cells[2].Workload.Load != 0.9 {
		t.Errorf("load not applied: %v, %v", cells[0].Workload.Load, cells[2].Workload.Load)
	}
	// The base spec is untouched by expansion.
	if s.Workload.Load != 0 || s.Policy != "" {
		t.Errorf("expansion mutated the base spec: %+v", s)
	}
}

func TestSingleRejectsSweeps(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	_, err := Single(s)
	if err == nil || !strings.Contains(err.Error(), "scenario sweep") {
		t.Fatalf("Single accepted a sweep spec: %v", err)
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, par := range []int{1, 8} {
		rep, err := Run(context.Background(), s, cells, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Error("JSON report differs between --parallel 1 and --parallel 8")
	}
}

func TestRunReportShape(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), s, cells, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 2 || rep.Seed != 7 || rep.Objective != MetricMeanResponse {
		t.Errorf("header wrong: %+v", rep)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		m, ok := cell.Metrics[MetricMeanResponse]
		if !ok {
			t.Fatalf("cell %s missing %s", cell.ID, MetricMeanResponse)
		}
		if len(m.Values) != 2 {
			t.Errorf("cell %s has %d replica values, want 2", cell.ID, len(m.Values))
		}
		if jobs := cell.Metrics[MetricJobs]; jobs.Mean != 12 {
			t.Errorf("cell %s jobs = %v, want 12", cell.ID, jobs.Mean)
		}
	}
	if rep.BestCell == "" {
		t.Error("no best cell over a 4-cell sweep")
	}
	// Every axis value group with >= 2 cells must have exactly one best.
	marks := 0
	for _, cell := range rep.Cells {
		marks += len(cell.BestFor)
	}
	if marks != 4 { // 2 axes × 2 values each
		t.Errorf("got %d best_for marks, want 4", marks)
	}

	var text, csvOut bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario \"t\"", "axis load", "axis policy", MetricMeanResponse, "best cell"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	if err := rep.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "scenario,load,policy,metric,mean,ci95\n") {
		t.Errorf("csv header wrong:\n%s", csvOut.String())
	}
}

// TestRunSeedOverrideChangesResults pins that the base seed flows into the
// per-cell derivation.
func TestRunSeedOverrideChangesResults(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 10}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) float64 {
		rep, err := Run(context.Background(), s, cells, Options{Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cells[0].Metrics[MetricMeanResponse].Mean
	}
	if run(1) == run(2) {
		t.Error("different base seeds produced identical results")
	}
	if run(3) != run(3) {
		t.Error("same base seed produced different results")
	}
}

func TestRunPortfolioPolicy(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "pf", "policy": "portfolio",
		"workload": {"class": "syn", "jobs": 30},
		"cluster": {"machines": 4}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), s, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := rep.Cells[0]
	for _, want := range []string{MetricMeanResponse, MetricMeanSlowdown, MetricWindows, MetricSelectionSims} {
		if _, ok := cell.Metrics[want]; !ok {
			t.Errorf("portfolio cell missing metric %s", want)
		}
	}
}

// TestRunTraceImport drives a scenario from a GWA CSV written via
// internal/trace, including load rescaling.
func TestRunTraceImport(t *testing.T) {
	dir := t.TempDir()
	gen := workload.StandardGenerator(workload.ClassSynthetic)
	tr := gen.Generate(15, newRand(5))
	var buf bytes.Buffer
	if err := trace.WriteJobs(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	spec := map[string]any{
		"version":  1,
		"name":     "imported",
		"workload": map[string]any{"trace": "jobs.csv", "load": 0.7},
		"policy":   "fcfs",
	}
	raw, _ := json.Marshal(spec)
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Load(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("trace spec invalid: %v", err)
	}
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), s, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jobs := rep.Cells[0].Metrics[MetricJobs].Mean; jobs != 15 {
		t.Errorf("imported trace ran %v jobs, want 15", jobs)
	}
}

// TestScaleToLoad pins the offered-load arithmetic.
func TestScaleToLoad(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{
		{ID: 1, Submit: 0, Tasks: []workload.Task{{ID: 1, JobID: 1, CPUs: 2, Runtime: 50}}},
		{ID: 2, Submit: 100, Tasks: []workload.Task{{ID: 2, JobID: 2, CPUs: 2, Runtime: 50}}},
	}}
	// work = 200 CPU-seconds over 8 cores: load 0.5 needs span 50.
	scaleToLoad(tr, 0.5, 8)
	if got := tr.Span(); got != 50 {
		t.Errorf("span after scaling = %v, want 50", got)
	}
	work := 0.0
	for _, j := range tr.Jobs {
		work += j.TotalWork()
	}
	span := float64(tr.Span())
	if load := work / (8 * span); load != 0.5 {
		t.Errorf("offered load = %v, want 0.5", load)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestValidateRejectsTraceWithClassSweep pins that an imported trace cannot
// be silently discarded by a class axis.
func TestValidateRejectsTraceWithClassSweep(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "jobs.csv")
	var buf bytes.Buffer
	if err := trace.WriteJobs(&buf, workload.StandardGenerator(workload.ClassSynthetic).Generate(3, newRand(1))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"workload": {"trace": `+fmt.Sprintf("%q", tracePath)+`},
		"sweep": {"class": ["sci", "bd"]}
	}`)
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive with sweeping") {
		t.Fatalf("trace + class sweep accepted: %v", err)
	}
}

// TestValidateRejectsTraceWithGeneratorSettings pins that generator-only
// settings and axes cannot silently no-op alongside an imported trace.
func TestValidateRejectsTraceWithGeneratorSettings(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "jobs.csv")
	var buf bytes.Buffer
	if err := trace.WriteJobs(&buf, workload.StandardGenerator(workload.ClassSynthetic).Generate(3, newRand(1))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"workload": {"trace": `+fmt.Sprintf("%q", tracePath)+`, "jobs": 50,
			"arrival": {"process": "poisson"}},
		"sweep": {"arrival": ["poisson", "flashcrowd"], "jobs": [10, 20]}
	}`)
	err := s.Validate()
	if err == nil {
		t.Fatal("trace + generator settings accepted")
	}
	for _, want := range []string{
		"trace and arrival are mutually exclusive",
		"trace and jobs are mutually exclusive",
		"sweeping over arrival",
		"sweeping over jobs",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestValidateRejectsOversizedClients pins the population size cap on both
// the base value and the sweep axis. A population allocates its client table
// up front, so 5·10⁹ clients asked for one 160 GB block: a fatal runtime
// error that no recover catches, which would kill the serving process.
func TestValidateRejectsOversizedClients(t *testing.T) {
	base := func(clients int) string {
		return fmt.Sprintf(`{"version": 2, "name": "t", "domain": "sched", "policy": "sjf",
			"workload": {"class": "gaming", "jobs": 10, "clients": %d}}`, clients)
	}
	swept := func(clients int) string {
		return fmt.Sprintf(`{"version": 2, "name": "t", "domain": "sched", "policy": "sjf",
			"workload": {"class": "gaming", "jobs": 10},
			"sweep": {"clients": [10, %d]}}`, clients)
	}
	for _, over := range []int{workload.MaxClients + 1, 5_000_000_000} {
		if err := specJSON(t, base(over)).Validate(); err == nil || !strings.Contains(err.Error(), "workload.clients: got") {
			t.Errorf("base clients=%d accepted: %v", over, err)
		}
		if err := specJSON(t, swept(over)).Validate(); err == nil || !strings.Contains(err.Error(), "sweep.clients[1]: got") {
			t.Errorf("swept clients=%d accepted: %v", over, err)
		}
	}
	for _, spec := range []string{base(workload.MaxClients), swept(workload.MaxClients)} {
		if err := specJSON(t, spec).Validate(); err != nil {
			t.Errorf("clients=%d rejected: %v", workload.MaxClients, err)
		}
	}
}

// TestValidateRejectsAliasDuplicates pins that duplicate detection compares
// resolved values, so alias spellings of one configuration collide.
func TestValidateRejectsAliasDuplicates(t *testing.T) {
	cases := []string{
		`{"version": 1, "name": "t", "policy": "sjf",
		  "workload": {"class": "syn", "jobs": 5},
		  "sweep": {"class": ["sci", "scientific"]}}`,
		`{"version": 1, "name": "t",
		  "workload": {"class": "syn", "jobs": 5},
		  "sweep": {"policy": ["easy-bf", "EASYBF"]}}`,
		`{"version": 1, "name": "t", "policy": "sjf",
		  "workload": {"class": "syn", "jobs": 5},
		  "sweep": {"kind": ["CL", "cluster"]}}`,
	}
	for i, src := range cases {
		err := specJSON(t, src).Validate()
		if err == nil || !strings.Contains(err.Error(), "duplicate value") {
			t.Errorf("case %d: alias duplicate accepted: %v", i, err)
		}
	}
}

// TestValidateRejectsPortfolioOnlyObjective pins that an objective the
// configured policy never emits is rejected instead of silently disabling
// best-cell highlighting.
func TestValidateRejectsPortfolioOnlyObjective(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "portfolio",
		"objective": "utilization",
		"workload": {"class": "syn", "jobs": 5}
	}`)
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), `policy "portfolio" does not emit "utilization"`) {
		t.Fatalf("portfolio with simulator-only objective accepted: %v", err)
	}
	// Mixed sweeps are held to the intersection too.
	s = specJSON(t, `{
		"version": 1, "name": "t",
		"objective": "utilization",
		"workload": {"class": "syn", "jobs": 5},
		"sweep": {"policy": ["sjf", "portfolio"]}
	}`)
	if err := s.Validate(); err == nil {
		t.Fatal("mixed sweep with portfolio-incompatible objective accepted")
	}
	// windows is portfolio-only: a static policy must reject it.
	s = specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"objective": "windows",
		"workload": {"class": "syn", "jobs": 5}
	}`)
	if err := s.Validate(); err == nil {
		t.Fatal("static policy with portfolio-only objective accepted")
	}
}

// TestPolicyCellsSharePairedWorkloads pins the common-random-numbers design:
// cells that differ only in policy see the identical generated job set, so
// their jobs/makespan-independent workload facts agree. FCFS and SJF on the
// same trace must report the same job count, and the workload IDs of the two
// cells must collide while their cell IDs do not.
func TestPolicyCellsSharePairedWorkloads(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t",
		"workload": {"class": "sci", "jobs": 15},
		"cluster": {"machines": 4},
		"sweep": {"policy": ["fcfs", "sjf"]}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].ID() == cells[1].ID() {
		t.Fatal("cell IDs collide")
	}
	if cells[0].WorkloadID() != cells[1].WorkloadID() {
		t.Fatalf("workload IDs differ: %q vs %q", cells[0].WorkloadID(), cells[1].WorkloadID())
	}
	rep, err := Run(context.Background(), s, cells, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same generated workload => identical total response-time *sums* would
	// require equal scheduling; but per-job critical paths are fixed, so the
	// count and the per-replica workload-derived values line up exactly.
	a := rep.Cells[0].Metrics[MetricJobs]
	b := rep.Cells[1].Metrics[MetricJobs]
	if a.Mean != b.Mean {
		t.Errorf("paired cells saw different job counts: %v vs %v", a.Mean, b.Mean)
	}
	// A jobs sweep, by contrast, must produce distinct workload IDs.
	s2 := specJSON(t, `{
		"version": 1, "name": "t", "policy": "sjf",
		"workload": {"class": "sci"},
		"sweep": {"jobs": [10, 20]}
	}`)
	cells2, err := Expand(s2)
	if err != nil {
		t.Fatal(err)
	}
	if cells2[0].WorkloadID() == cells2[1].WorkloadID() {
		t.Error("jobs axis should change the workload ID")
	}
}

// TestObjectiveUsesSweptPoliciesNotBase pins that a swept policy axis
// overrides the base policy for objective checking, and that "portfolio"
// resolves case-insensitively like every other name.
func TestObjectiveUsesSweptPoliciesNotBase(t *testing.T) {
	// Base is portfolio but every cell runs a static policy: utilization OK.
	s := specJSON(t, `{
		"version": 1, "name": "t", "policy": "portfolio",
		"objective": "utilization",
		"workload": {"class": "syn", "jobs": 5},
		"sweep": {"policy": ["sjf", "fcfs"]}
	}`)
	if err := s.Validate(); err != nil {
		t.Errorf("swept static policies should allow utilization: %v", err)
	}
	if err := specJSON(t, `{
		"version": 1, "name": "t", "policy": "Portfolio",
		"workload": {"class": "syn", "jobs": 5}
	}`).Validate(); err != nil {
		t.Errorf(`"Portfolio" should resolve case-insensitively: %v`, err)
	}
	err := specJSON(t, `{
		"version": 1, "name": "t", "policy": "heft",
		"workload": {"class": "syn", "jobs": 5}
	}`).Validate()
	if err == nil || !strings.Contains(err.Error(), `or "portfolio"`) {
		t.Errorf("unknown-policy error should mention portfolio: %v", err)
	}
}

// TestValidateRefusesUnplaceableWork pins that no cell may draw tasks wider
// than its widest machine: the business-critical class draws up to 15
// cores, so it cannot run on 8-core machines (set, swept, or a kind's
// standard shape) nor under an autoscale cap whose last VM cannot reach 15
// cores, while 16-core machines take it, and so does a 14-core cap of
// 4-core VMs, which the engine can overshoot to 17. The error names the
// class and the bounding field.
func TestValidateRefusesUnplaceableWork(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{`{"version": 1, "name": "bc", "policy": "fcfs", "workload": {"class": "bc", "jobs": 200},
			"cluster": {"machines": 16, "cores": 8}}`,
			`workload.class: "bc" draws tasks up to 15 cores wide, but cluster.cores allows 8`},
		{`{"version": 1, "name": "bc", "policy": "fcfs", "workload": {"class": "bc"},
			"cluster": {"machines": 16}, "sweep": {"cores": [16, 8]}}`,
			`cluster.cores allows 8; no machine could ever run them (cell bc/cores=8)`},
		{`{"version": 1, "name": "mix", "policy": "fcfs", "workload": {"class": "sci"},
			"cluster": {"cores": 8}, "sweep": {"class": ["sci", "ce", "business-critical"]}}`,
			`"business-critical" draws tasks up to 15 cores wide, but cluster.cores allows 8; no machine could ever run them (cell mix/class=business-critical)`},
		{`{"version": 1, "name": "k", "policy": "fcfs", "workload": {"class": "bc"}, "sweep": {"kind": ["CL", "G"]}}`,
			`(cell k/kind=CL)`},
		{`{"version": 2, "name": "as", "domain": "autoscale", "workload": {"class": "bc"},
			"autoscale": {"autoscaler": "React", "max_cores": 8}}`,
			`"bc" draws tasks up to 15 cores wide, but autoscale.max_cores + core_per_vm - 1 allows 11`},
		{`{"version": 2, "name": "as", "domain": "autoscale", "workload": {"class": "bc"},
			"autoscale": {"autoscaler": "React", "max_cores": 12, "core_per_vm": 2}}`,
			`autoscale.max_cores + core_per_vm - 1 allows 13`},
	} {
		err := specJSON(t, tc.spec).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %s: Validate = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
	for _, ok := range []string{
		`{"version": 1, "name": "bc", "policy": "fcfs", "workload": {"class": "bc"}, "cluster": {"cores": 16}}`,
		`{"version": 2, "name": "as", "domain": "autoscale", "workload": {"class": "bc"}, "autoscale": {"autoscaler": "React"}}`,
		`{"version": 2, "name": "as", "domain": "autoscale", "workload": {"class": "bc"}, "autoscale": {"autoscaler": "React", "max_cores": 14, "core_per_vm": 4}}`,
		`{"version": 1, "name": "ce", "policy": "fcfs", "workload": {"class": "ce"}, "sweep": {"kind": ["CL", "G", "CD", "MCD", "GDC"]}}`,
	} {
		if err := specJSON(t, ok).Validate(); err != nil {
			t.Errorf("spec %s refused: %v", ok, err)
		}
	}
}
