// Package scenario is the declarative what-if engine of the AtLarge
// reproduction: a versioned JSON specification names a simulation domain
// (cluster scheduling, autoscaling, MMOG worlds — see Domain), the domain's
// parameters, and the workload under study; a sweep expander turns axis
// lists into the cross-product of concrete scenarios; execution fans the
// expanded set out over the parallel atlarge.Runner with deterministic
// per-(scenario, replica) seeds; and a report layer aggregates the results
// into comparative tables (mean ± 95% CI per cell, best-per-axis
// highlighting) in text, JSON, or CSV.
//
// The engine exists so that new design questions — "which policy wins on a
// bursty scientific workload as load grows?", "does a workflow-aware
// autoscaler pay off as load rises?", "how many servers does each world
// partitioner need?" — can be posed by writing a spec file instead of a new
// Go experiment (see examples/scenarios/). New simulators join by
// registering a Domain; the schema, sweeps, seeding discipline, and reports
// are shared.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"atlarge/internal/trace"
	"atlarge/internal/workload"
)

// SpecVersion is the schema version this build writes. Version 1 specs (the
// schema before domains existed) are auto-upgraded on parse: they become
// version 2 specs with domain "sched".
const SpecVersion = 2

// Spec is one declarative what-if specification.
type Spec struct {
	// Version is the schema version; must equal SpecVersion (version 1
	// specs auto-upgrade on parse).
	Version int `json:"version"`
	// Name identifies the scenario family in reports and cell IDs.
	Name string `json:"name"`
	// Domain names the registered simulation domain (see DomainNames);
	// version-1 specs upgrade to "sched".
	Domain string `json:"domain,omitempty"`
	// Workload names the workload under study (sched and autoscale
	// domains).
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Cluster names the execution environment shape (sched domain).
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Policy is the scheduling policy (see sched.PolicyNames) or
	// "portfolio" for the portfolio scheduler over the default policy set
	// (sched domain).
	Policy string `json:"policy,omitempty"`
	// Autoscale parameterizes the autoscale domain.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// MMOG parameterizes the mmog domain.
	MMOG *MMOGSpec `json:"mmog,omitempty"`
	// Replicas is the default replica count (CLI --replicas overrides);
	// 0 means 1.
	Replicas int `json:"replicas,omitempty"`
	// Seed is the base seed for per-(scenario, replica) seed derivation
	// (CLI --seed overrides).
	Seed int64 `json:"seed,omitempty"`
	// Objective selects the metric used for best-cell highlighting;
	// empty means the domain's default.
	Objective string `json:"objective,omitempty"`
	// Sweep maps axis names to value lists; the cross-product over the
	// axes (in lexicographic axis-name order) is the set of concrete
	// scenarios. The accepted axes are the domain's (see Domain.Axes).
	Sweep map[string][]any `json:"sweep,omitempty"`

	// dir is the directory the spec was loaded from, for resolving
	// relative trace paths; empty when parsed from a reader.
	dir string
	// traceOnce/traceCache/traceErr memoize the parsed workload trace, so
	// the file is read and parsed once per spec. Each call of loadTrace
	// gets a deep copy: the trace memo of Run or of a dist worker builds
	// one per replica and shares it between cells, each of which rescales
	// a headerCopy of it, and a cell without a memo rescales its own copy
	// in place.
	traceOnce  sync.Once
	traceCache *workload.Trace
	traceErr   error
}

// WorkloadSpec names a workload: either a generated class or a GWA trace.
type WorkloadSpec struct {
	// Class is a Table 9 workload class (see workload.ClassNames).
	// Mutually exclusive with Trace.
	Class string `json:"class,omitempty"`
	// Jobs is the number of generated jobs; 0 means 100. Ignored with
	// Trace.
	Jobs int `json:"jobs,omitempty"`
	// Arrival overrides the class's calibrated arrival process.
	Arrival *ArrivalSpec `json:"arrival,omitempty"`
	// Trace imports a GWA-style CSV job trace (trace.ReadJobs) instead of
	// generating; relative paths resolve against the spec file location.
	Trace string `json:"trace,omitempty"`
	// Load, when positive, rescales submission times so the offered load
	// (total CPU-seconds ÷ (cores × submission span)) hits this target.
	Load float64 `json:"load,omitempty"`
	// Clients, when positive, streams the workload from a Population of
	// that many heterogeneous clients — per-client RNG streams, optional
	// rate skew — with the class calibrating every client. Mutually
	// exclusive with Trace.
	Clients int `json:"clients,omitempty"`
	// Skew names the per-client rate skew for populations: "none", "zipf",
	// or "lognormal" (see workload.SkewNames). Requires Clients.
	Skew string `json:"skew,omitempty"`
}

// ArrivalSpec names an arrival process with optional parameter overrides.
type ArrivalSpec struct {
	// Process is an arrival family name (see workload.ArrivalNames).
	Process string `json:"process"`
	// Params overrides family defaults ("rate", "k", "spike", ...).
	Params map[string]float64 `json:"params,omitempty"`
}

// ClusterSpec names an environment shape.
type ClusterSpec struct {
	// Kind is a Table 9 environment kind (see cluster.KindNames);
	// empty means CL.
	Kind string `json:"kind,omitempty"`
	// Sites/Machines/Cores override the shape; all zero means the
	// calibrated cluster.StandardEnvironment for the kind. A partial
	// override fills the unset dimensions from the kind's standard shape.
	Sites    int `json:"sites,omitempty"`
	Machines int `json:"machines,omitempty"`
	Cores    int `json:"cores,omitempty"`
}

// AutoscaleSpec parameterizes the autoscale domain: which autoscaler runs
// the workload under which elasticity engine.
type AutoscaleSpec struct {
	// Autoscaler names the policy under study (see autoscale §6.7
	// catalog: React, Adapt, Hist, Reg, ConPaaS, Plan, Token). Required
	// unless the autoscaler axis is swept.
	Autoscaler string `json:"autoscaler,omitempty"`
	// Engine is the evaluation technique: "in-vitro" (fine-grained,
	// default) or "in-silico" (coarse fluid).
	Engine string `json:"engine,omitempty"`
	// BootDelay is the VM provisioning latency in seconds; 0 means 60.
	BootDelay float64 `json:"boot_delay_s,omitempty"`
	// EvalInterval is the autoscaler period in seconds; 0 means 30.
	EvalInterval float64 `json:"eval_interval_s,omitempty"`
	// MaxCores caps provider capacity (also the core count used for
	// offered-load rescaling); 0 means 512.
	MaxCores int `json:"max_cores,omitempty"`
	// CorePerVM is the VM granularity; 0 means 4.
	CorePerVM int `json:"core_per_vm,omitempty"`
}

// MMOGSpec parameterizes the mmog domain: an event-driven virtual world
// split across game servers by a partitioning technique.
type MMOGSpec struct {
	// Partitioner names the technique (see mmog.PartitionerNames: zones,
	// area-of-simulation, mirror). Required unless swept.
	Partitioner string `json:"partitioner,omitempty"`
	// Servers is the game-server count; 0 means 8.
	Servers int `json:"servers,omitempty"`
	// Entities is the world population; 0 means 400.
	Entities int `json:"entities,omitempty"`
	// Ticks is the number of simulated world ticks; 0 means 60.
	Ticks int `json:"ticks,omitempty"`
	// Offload is the mirror technique's offload fraction; 0 means 0.5.
	Offload float64 `json:"offload,omitempty"`
}

// PolicyPortfolio is the Policy value that selects the portfolio scheduler.
const PolicyPortfolio = "portfolio"

// Parse decodes a spec from r. Unknown fields are rejected so typos in spec
// files surface as errors instead of silently-ignored settings. Version-1
// specs are upgraded in place to version 2 with domain "sched".
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	s.upgrade()
	return &s, nil
}

// upgrade lifts a version-1 spec (the pre-domain schema) to version 2: the
// only v1 simulator was the cluster scheduler, so the domain is "sched".
func (s *Spec) upgrade() {
	if s.Version == 1 {
		s.Version = 2
		if s.Domain == "" {
			s.Domain = "sched"
		}
	}
}

// Load reads and parses a spec file. Relative workload trace paths resolve
// against the file's directory.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	s.dir = filepath.Dir(path)
	return s, nil
}

// tracePath resolves the workload trace path against the spec location.
func (s *Spec) tracePath() string {
	if s.Workload.Trace == "" || filepath.IsAbs(s.Workload.Trace) || s.dir == "" {
		return s.Workload.Trace
	}
	return filepath.Join(s.dir, s.Workload.Trace)
}

// domainImpl resolves the spec's domain from the registry.
func (s *Spec) domainImpl() (Domain, error) {
	if s.Domain == "" {
		return nil, fmt.Errorf("scenario: spec %q has no domain (known: %s; version-1 specs imply %q)",
			s.Name, strings.Join(DomainNames(), ", "), "sched")
	}
	return DomainByName(s.Domain)
}

// objective returns the highlight metric, defaulted per domain.
func (s *Spec) objective(d Domain) string {
	if s.Objective == "" {
		return d.DefaultObjective()
	}
	return s.Objective
}

// Validate checks the whole spec — base fields, the domain's parameters,
// every sweep axis, and every swept value — and reports every problem it
// finds as one joined error, so a malformed spec can be fixed in a single
// pass.
func (s *Spec) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate returning the expanded cells of a valid spec, which
// the placement check walks.
func (s *Spec) validate() ([]Scenario, error) {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	if s.Version != SpecVersion {
		bad("version: got %d, this build supports version %d (and auto-upgrades version 1)",
			s.Version, SpecVersion)
	}
	if s.Name == "" {
		bad(`name: required (used in report headers and scenario IDs, e.g. "policy-vs-load")`)
	}
	if s.Replicas < 0 {
		bad("replicas: got %d, must be >= 0 (0 means 1)", s.Replicas)
	}

	var cells []Scenario
	d, err := s.domainImpl()
	if err != nil {
		// Without a resolvable domain no axis catalog or metric set exists;
		// the remaining checks would only produce misleading noise.
		if s.Domain == "" {
			bad("domain: required (known: %s; version-1 specs imply %q)",
				strings.Join(DomainNames(), ", "), "sched")
		} else {
			bad("domain: %v", errTrimPrefix(err))
		}
	} else {
		d.Validate(s, bad)
		s.validateObjective(d, bad)
		s.validateSweep(d, bad)
		// Cells are only expanded from a spec that is otherwise valid.
		if len(problems) == 0 {
			cells = s.expand(d)
			validatePlacement(d, cells, bad)
		}
	}

	if len(problems) == 0 {
		return cells, nil
	}
	return nil, fmt.Errorf("scenario: invalid spec %q:\n  - %s", s.Name, strings.Join(problems, "\n  - "))
}

// placer is a domain whose cells place generated tasks on machines of a
// bounded width.
type placer interface {
	// widest names the spec field that bounds the cell's machine width and
	// returns that width.
	widest(sc *Scenario) (field string, cores int)
}

// validatePlacement refuses work no machine can hold: a cell whose workload
// class can draw a task wider than the widest machine would leave that task
// queued forever, and the simulators would report the rest of the cell's
// jobs as if the run had finished. Every cell is checked, so sweeps over
// class, kind, cores or max_cores are covered; each distinct problem is
// reported once, naming the first cell that has it.
func validatePlacement(d Domain, cells []Scenario, bad func(string, ...any)) {
	p, ok := d.(placer)
	if !ok {
		return
	}
	seen := make(map[string]bool)
	for i := range cells {
		sc := &cells[i]
		if sc.Workload.Trace != "" {
			continue
		}
		class, err := workload.ClassByName(sc.Workload.Class)
		if err != nil {
			continue
		}
		field, cores := p.widest(sc)
		width := workload.StandardGenerator(class).MaxTaskCPUs()
		if width <= cores || cores <= 0 {
			continue
		}
		problem := fmt.Sprintf("workload.class: %q draws tasks up to %d cores wide, but %s allows %d; no machine could ever run them",
			sc.Workload.Class, width, field, cores)
		if seen[problem] {
			continue
		}
		seen[problem] = true
		if len(sc.Params) > 0 {
			problem += fmt.Sprintf(" (cell %s)", sc.ID())
		}
		bad("%s", problem)
	}
}

// errTrimPrefix drops the "scenario: " prefix when nesting registry errors
// inside a validation problem list.
func errTrimPrefix(err error) string {
	return strings.TrimPrefix(err.Error(), "scenario: ")
}

// validateObjective checks the highlight metric against the domain's metric
// catalog; domains add their own refinements (e.g. per-policy emission) in
// Domain.Validate.
func (s *Spec) validateObjective(d Domain, bad func(string, ...any)) {
	obj := s.objective(d)
	if !domainMetric(d, obj) {
		bad("objective: unknown metric %q (domain %s emits: %s)",
			obj, d.Name(), strings.Join(metricNames(d), ", "))
	}
}

// rejectSection reports domain-foreign spec sections, so parameters of one
// simulator cannot be silently ignored by another.
func rejectSection(set bool, section, domain string, bad func(string, ...any)) {
	if set {
		bad("%s: not used by domain %s; remove it", section, domain)
	}
}

// defaultJobs is the generated job count when the spec leaves it unset.
const defaultJobs = 100

// validateWorkloadSpec checks the shared workload section (used by the sched
// and autoscale domains).
func (s *Spec) validateWorkloadSpec(bad func(string, ...any)) {
	w := s.Workload
	swept := func(axis string) bool { _, ok := s.Sweep[axis]; return ok }
	switch {
	case w.Trace != "" && w.Class != "":
		bad("workload: class and trace are mutually exclusive; set exactly one")
	case w.Trace == "" && w.Class == "" && !swept("class"):
		bad("workload: set class (known: %s) or trace (GWA CSV path), or sweep over class",
			strings.Join(workload.ClassNames(), ", "))
	}
	if w.Trace != "" {
		// An imported trace fixes the job set: generator settings would be
		// silently ignored, and sweeping them would compare identical cells.
		if w.Arrival != nil {
			bad("workload: trace and arrival are mutually exclusive (the trace fixes the arrivals)")
		}
		if w.Jobs != 0 {
			bad("workload: trace and jobs are mutually exclusive (the trace fixes the job count)")
		}
		if w.Clients != 0 {
			bad("workload: trace and clients are mutually exclusive (the trace fixes the job set)")
		}
		if w.Skew != "" {
			bad("workload: trace and skew are mutually exclusive (the trace fixes the job set)")
		}
		for _, axis := range []string{"class", "arrival", "jobs", "clients", "skew"} {
			if swept(axis) {
				bad("workload: trace is mutually exclusive with sweeping over %s; drop one", axis)
			}
		}
	}
	if w.Class != "" {
		if _, err := workload.ClassByName(w.Class); err != nil {
			bad("workload.class: %v", err)
		}
	}
	if w.Trace != "" {
		if _, err := os.Stat(s.tracePath()); err != nil {
			bad("workload.trace: %v", err)
		}
	}
	if w.Jobs < 0 {
		bad("workload.jobs: got %d, must be >= 0 (0 means %d)", w.Jobs, defaultJobs)
	}
	if w.Load < 0 {
		bad("workload.load: got %g, must be >= 0 (0 means arrivals as generated)", w.Load)
	}
	if w.Arrival != nil {
		if _, err := workload.ArrivalsByName(w.Arrival.Process, w.Arrival.Params); err != nil {
			bad("workload.arrival: %v", err)
		}
	}
	if w.Clients < 0 || w.Clients > workload.MaxClients {
		bad("workload.clients: got %d, must be 0 to %d (0 means the single-generator path)", w.Clients, workload.MaxClients)
	}
	if w.Skew != "" {
		if _, err := workload.ParseSkew(w.Skew); err != nil {
			bad("workload.skew: %v", err)
		}
	}
	if w.Clients == 0 && !swept("clients") {
		if w.Skew != "" {
			bad("workload.skew requires clients > 0 (or sweeping over clients)")
		}
		if swept("skew") {
			bad("workload: sweeping over skew requires clients > 0 (or sweeping over clients)")
		}
	}
}

// loadTrace returns a fresh deep copy of the spec's GWA trace; the file is
// read and parsed once per spec, however many cells and replicas run it.
// Its errors name no cell: buildTrace adds the cell that asked.
func (s *Spec) loadTrace() (*workload.Trace, error) {
	s.traceOnce.Do(func() {
		f, err := os.Open(s.tracePath())
		if err != nil {
			s.traceErr = err
			return
		}
		defer f.Close()
		tr, err := trace.ReadJobs(f)
		if err != nil {
			s.traceErr = fmt.Errorf("%s: %w", s.tracePath(), err)
			return
		}
		s.traceCache = tr
	})
	if s.traceErr != nil {
		return nil, s.traceErr
	}
	return s.traceCache.Clone(), nil
}
