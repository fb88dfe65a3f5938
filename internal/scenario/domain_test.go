package scenario

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestV1SpecAutoUpgrades pins the schema migration: a version-1 spec (the
// pre-domain schema) parses as a version-2 spec with domain "sched" and
// validates and runs unchanged.
func TestV1SpecAutoUpgrades(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "legacy", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 5}
	}`)
	if s.Version != SpecVersion {
		t.Errorf("Version = %d after parse, want %d", s.Version, SpecVersion)
	}
	if s.Domain != "sched" {
		t.Errorf("Domain = %q after parse, want \"sched\"", s.Domain)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("upgraded v1 spec invalid: %v", err)
	}
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), s, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpecVersion != SpecVersion || rep.Domain != "sched" {
		t.Errorf("report header = v%d/%q, want v%d/sched", rep.SpecVersion, rep.Domain, SpecVersion)
	}
}

// TestV1SpecWithExplicitDomainKept pins that a version-1 spec that already
// names a domain keeps it through the upgrade.
func TestV1SpecWithExplicitDomainKept(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "t", "domain": "mmog",
		"mmog": {"partitioner": "aos"}
	}`)
	if s.Domain != "mmog" || s.Version != SpecVersion {
		t.Errorf("upgrade mangled explicit domain: v%d %q", s.Version, s.Domain)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("v1+domain spec invalid: %v", err)
	}
}

// TestValidateUnknownAndMissingDomain pins the domain-resolution errors:
// both name the known domains so the fix is obvious, and the remaining
// generic problems are still reported in the same pass.
func TestValidateUnknownAndMissingDomain(t *testing.T) {
	err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "serverless",
		"replicas": -2
	}`).Validate()
	if err == nil {
		t.Fatal("unknown domain accepted")
	}
	for _, want := range []string{
		`unknown domain "serverless"`,
		"known: autoscale, mmog, sched",
		"replicas: got -2",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-domain error missing %q: %v", want, err)
		}
	}

	err = specJSON(t, `{"version": 2, "name": "t"}`).Validate()
	if err == nil {
		t.Fatal("missing domain accepted")
	}
	for _, want := range []string{
		"domain: required",
		"known: autoscale, mmog, sched",
		`version-1 specs imply "sched"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing-domain error missing %q: %v", want, err)
		}
	}
}

// TestDomainRegistryCollisions pins the registry's name hygiene: duplicate
// (case-insensitive) and empty names are rejected.
func TestDomainRegistryCollisions(t *testing.T) {
	if err := RegisterDomain(fakeDomain{name: "sched"}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate domain accepted: %v", err)
	}
	if err := RegisterDomain(fakeDomain{name: "SCHED"}); err == nil {
		t.Error("case-variant duplicate domain accepted")
	}
	if err := RegisterDomain(fakeDomain{name: "  "}); err == nil {
		t.Error("blank domain name accepted")
	}
	if _, err := DomainByName("Sched"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	names := DomainNames()
	if len(names) != 3 || names[0] != "autoscale" || names[1] != "mmog" || names[2] != "sched" {
		t.Errorf("DomainNames = %v", names)
	}
}

// fakeDomain is a minimal Domain for registry tests.
type fakeDomain struct{ name string }

func (f fakeDomain) Name() string                                     { return f.name }
func (fakeDomain) Axes() map[string]AxisDef                           { return nil }
func (fakeDomain) Metrics() []MetricDef                               { return nil }
func (fakeDomain) DefaultObjective() string                           { return "" }
func (fakeDomain) Validate(*Spec, func(string, ...any))               {}
func (fakeDomain) Run(*Scenario, int64, int64) ([]MetricValue, error) { return nil, nil }

// TestValidateRejectsForeignSections pins that a spec cannot smuggle one
// domain's parameters into another (they would be silently ignored).
func TestValidateRejectsForeignSections(t *testing.T) {
	err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "sched", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 5},
		"mmog": {"partitioner": "aos"},
		"autoscale": {"autoscaler": "React"}
	}`).Validate()
	if err == nil {
		t.Fatal("sched spec with mmog+autoscale sections accepted")
	}
	for _, want := range []string{"mmog: not used by domain sched", "autoscale: not used by domain sched"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}

	err = specJSON(t, `{
		"version": 2, "name": "t", "domain": "mmog",
		"mmog": {"partitioner": "aos"},
		"policy": "sjf",
		"workload": {"class": "syn"}
	}`).Validate()
	if err == nil {
		t.Fatal("mmog spec with policy+workload accepted")
	}
	for _, want := range []string{"policy: not used by domain mmog", "workload: not used by domain mmog"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestAutoscaleDomainValidation pins the autoscale domain's all-problems
// validation: unknown autoscaler, unknown engine, bad numerics, and unknown
// axes in one pass.
func TestAutoscaleDomainValidation(t *testing.T) {
	err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "autoscale",
		"workload": {"class": "syn", "jobs": 5},
		"autoscale": {"autoscaler": "Nessie", "engine": "in-virtuo",
			"boot_delay_s": -3, "max_cores": -1},
		"sweep": {"policy": ["sjf"], "boot_delay": [-2], "autoscaler": ["React", "react"]}
	}`).Validate()
	if err == nil {
		t.Fatal("malformed autoscale spec accepted")
	}
	for _, want := range []string{
		`autoscale.autoscaler: autoscale: unknown autoscaler "Nessie"`,
		"autoscale.engine:",
		"autoscale.boot_delay_s: got -3",
		"autoscale.max_cores: got -1",
		"sweep.policy: unknown axis (domain autoscale sweeps:",
		"sweep.boot_delay[0]:",
		"sweep.autoscaler[1]: duplicate value react",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}

	// A valid sweep without a base autoscaler is fine (swept axis).
	if err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "autoscale",
		"workload": {"class": "sci", "jobs": 8},
		"sweep": {"autoscaler": ["React", "Plan"]}
	}`).Validate(); err != nil {
		t.Errorf("valid autoscale sweep rejected: %v", err)
	}
}

// TestMMOGDomainValidation pins the mmog domain's validation.
func TestMMOGDomainValidation(t *testing.T) {
	err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "mmog",
		"mmog": {"partitioner": "voronoi", "servers": -1, "offload": 2},
		"sweep": {"class": ["sci"], "offload": [0.95]}
	}`).Validate()
	if err == nil {
		t.Fatal("malformed mmog spec accepted")
	}
	for _, want := range []string{
		`mmog.partitioner: mmog: unknown partitioner "voronoi"`,
		"mmog.servers: got -1",
		"mmog.offload: got 2",
		"sweep.class: unknown axis (domain mmog sweeps:",
		"sweep.offload[0]: got 0.95",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}

// TestAutoscaleSweepRunsAndPairsWorkloads runs a small autoscale sweep end
// to end: byte-identical across parallelism, and cells differing only in
// autoscaler share the workload seed (CRN pairing) so they face the same
// generated job set.
func TestAutoscaleSweepRunsAndPairsWorkloads(t *testing.T) {
	s := specJSON(t, `{
		"version": 2, "name": "as", "domain": "autoscale",
		"workload": {"class": "sci", "jobs": 6},
		"autoscale": {"max_cores": 64},
		"replicas": 2,
		"sweep": {"autoscaler": ["React", "Plan"]}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].WorkloadID() != cells[1].WorkloadID() {
		t.Errorf("autoscaler cells should share workloads: %q vs %q",
			cells[0].WorkloadID(), cells[1].WorkloadID())
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
		t.Error("autoscale sweep differs between --parallel 1 and --parallel 8")
	}
	rep, err := Run(context.Background(), s, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Domain != "autoscale" {
		t.Errorf("report domain = %q", rep.Domain)
	}
	for _, cell := range rep.Cells {
		jobs, ok := cell.Metrics[MetricJobs]
		if !ok || jobs.Mean != 6 {
			t.Errorf("cell %s jobs = %v, want 6", cell.ID, jobs.Mean)
		}
		if _, ok := cell.Metrics[MetricAccuracyUnder]; !ok {
			t.Errorf("cell %s missing elasticity metrics", cell.ID)
		}
	}
}

// TestMMOGSweepRunsDeterministically runs the mmog example sweep shape end
// to end and pins CRN pairing across partitioners.
func TestMMOGSweepRunsDeterministically(t *testing.T) {
	s := specJSON(t, `{
		"version": 2, "name": "worlds", "domain": "mmog",
		"mmog": {"entities": 150, "ticks": 5},
		"objective": "mean_max_load",
		"sweep": {"partitioner": ["zones", "aos"], "servers": [4, 8]}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// All cells share one generated world per replica.
	for _, c := range cells[1:] {
		if c.WorkloadID() != cells[0].WorkloadID() {
			t.Errorf("world not paired: %q vs %q", c.WorkloadID(), cells[0].WorkloadID())
		}
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
		t.Error("mmog sweep differs between --parallel 1 and --parallel 8")
	}
	rep, err := Run(context.Background(), s, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical worlds: entity counts agree across all cells; with 16 POIs
	// of load on 4 vs 8 servers, more servers must not raise the mean
	// hottest-server load.
	for _, cell := range rep.Cells {
		if ent := cell.Metrics[MetricEntities]; ent.Mean != 150 {
			t.Errorf("cell %s entities = %v, want 150", cell.ID, ent.Mean)
		}
	}
	if rep.BestCell == "" {
		t.Error("no best cell in a 4-cell mmog sweep")
	}
}

// TestCommittedDomainSpecsValidate keeps the shipped example specs runnable:
// every spec in examples/scenarios must expand cleanly.
func TestCommittedDomainSpecsValidate(t *testing.T) {
	for _, name := range []string{
		"policy-vs-load.json",
		"flashcrowd-arrivals.json",
		"environment-shapes.json",
		"autoscaler-vs-load.json",
		"mmog-partitioners.json",
		"smoke-32.json",
	} {
		spec, err := Load(filepath.Join("..", "..", "examples", "scenarios", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := Expand(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSentinelZeroRejectedInSweeps pins that the "0 means default" spec
// sentinels cannot be swept: a boot_delay=0 or offload=0 cell would silently
// run the engine default under a wrong label.
func TestSentinelZeroRejectedInSweeps(t *testing.T) {
	err := specJSON(t, `{
		"version": 2, "name": "t", "domain": "autoscale",
		"workload": {"class": "sci", "jobs": 5},
		"autoscale": {"autoscaler": "React"},
		"sweep": {"boot_delay": [0, 30]}
	}`).Validate()
	if err == nil || !strings.Contains(err.Error(), "sweep.boot_delay[0]: got 0") {
		t.Errorf("swept boot_delay=0 accepted: %v", err)
	}
	err = specJSON(t, `{
		"version": 2, "name": "t", "domain": "mmog",
		"mmog": {"partitioner": "mirror"},
		"sweep": {"offload": [0, 0.3]}
	}`).Validate()
	if err == nil || !strings.Contains(err.Error(), "sweep.offload[0]: got 0") {
		t.Errorf("swept offload=0 accepted: %v", err)
	}
}
