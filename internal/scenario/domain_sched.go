package scenario

import (
	"fmt"
	"sort"
	"strings"

	"atlarge/internal/cluster"
	"atlarge/internal/portfolio"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

// Metric names emitted by sched-domain scenario runs. Static policies report
// the full set; the portfolio scheduler reports the subset its result
// carries plus its selection counters.
const (
	MetricJobs           = "jobs"
	MetricMakespan       = "makespan_s"
	MetricMeanResponse   = "mean_response_s"
	MetricMeanWait       = "mean_wait_s"
	MetricMeanSlowdown   = "mean_slowdown"
	MetricUtilization    = "utilization"
	MetricDeadlineMisses = "deadline_misses"
	MetricWindows        = "windows"
	MetricSelectionSims  = "selection_sims"
)

// portfolioMetrics are the metrics a sched cell emits for the portfolio
// scheduler; simulatorMetrics are the ones static policies emit. The
// objective must be emitted by every policy a spec runs, or best-cell
// highlighting would silently do nothing.
var (
	portfolioMetrics = map[string]bool{
		MetricJobs: true, MetricMeanResponse: true, MetricMeanSlowdown: true,
		MetricWindows: true, MetricSelectionSims: true,
	}
	simulatorMetrics = map[string]bool{
		MetricJobs: true, MetricMakespan: true, MetricMeanResponse: true,
		MetricMeanWait: true, MetricMeanSlowdown: true, MetricUtilization: true,
		MetricDeadlineMisses: true,
	}
)

func init() { MustRegisterDomain(schedDomain{}) }

// schedDomain is the cluster-scheduling simulator behind the scenario
// engine: Table 9 workload classes or GWA traces, environment shapes, and
// scheduling policies (or the portfolio scheduler) on the event kernel.
type schedDomain struct{}

func (schedDomain) Name() string { return "sched" }

func (schedDomain) DefaultObjective() string { return MetricMeanResponse }

func (schedDomain) Metrics() []MetricDef {
	return []MetricDef{
		{Name: MetricDeadlineMisses},
		{Name: MetricJobs},
		{Name: MetricMakespan},
		{Name: MetricMeanResponse},
		{Name: MetricMeanSlowdown},
		{Name: MetricMeanWait},
		{Name: MetricSelectionSims},
		{Name: MetricUtilization, HigherBetter: true},
		{Name: MetricWindows},
	}
}

// isPortfolio matches the portfolio policy name case-insensitively, like
// every other name lookup.
func isPortfolio(name string) bool { return strings.EqualFold(name, PolicyPortfolio) }

func validPolicy(name string) error {
	if isPortfolio(name) {
		return nil
	}
	if _, err := sched.PolicyByName(name); err != nil {
		return fmt.Errorf("unknown policy %q (known: %s, or %q)",
			name, strings.Join(sched.PolicyNames(), ", "), PolicyPortfolio)
	}
	return nil
}

func (d schedDomain) Validate(s *Spec, bad func(string, ...any)) {
	rejectSection(s.Autoscale != nil, "autoscale", d.Name(), bad)
	rejectSection(s.MMOG != nil, "mmog", d.Name(), bad)
	s.validateWorkloadSpec(bad)

	c := s.Cluster
	if c.Kind != "" {
		if _, err := cluster.KindByName(c.Kind); err != nil {
			bad("cluster.kind: %v", err)
		}
	}
	for _, dim := range []struct {
		name string
		v    int
	}{{"sites", c.Sites}, {"machines", c.Machines}, {"cores", c.Cores}} {
		if dim.v < 0 {
			bad("cluster.%s: got %d, must be >= 0 (0 means the kind's standard shape)", dim.name, dim.v)
		}
	}

	if s.Policy == "" {
		if _, ok := s.Sweep["policy"]; !ok {
			bad("policy: required unless swept (known: %s, or %q)",
				strings.Join(sched.PolicyNames(), ", "), PolicyPortfolio)
		}
	} else if err := validPolicy(s.Policy); err != nil {
		bad("policy: %v", err)
	}

	d.validateObjectiveEmission(s, bad)
}

// validateObjectiveEmission checks the highlight metric is emitted by every
// policy the spec runs — otherwise best-cell highlighting would silently
// produce nothing.
func (d schedDomain) validateObjectiveEmission(s *Spec, bad func(string, ...any)) {
	obj := s.objective(d)
	if !domainMetric(d, obj) {
		return // the generic unknown-metric error already covers this
	}
	// Collect every (valid) policy some cell will actually run: the swept
	// values when the policy axis is swept (it overrides the base in every
	// cell), the base policy otherwise.
	policies := []string{}
	if swept, ok := s.Sweep["policy"]; ok {
		for _, v := range swept {
			if name, ok := v.(string); ok && validPolicy(name) == nil {
				policies = append(policies, name)
			}
		}
	} else if s.Policy != "" {
		policies = append(policies, s.Policy)
	}
	for _, p := range policies {
		emitted := simulatorMetrics
		if isPortfolio(p) {
			emitted = portfolioMetrics
		}
		if !emitted[obj] {
			names := make([]string, 0, len(emitted))
			for name := range emitted {
				names = append(names, name)
			}
			sort.Strings(names)
			bad("objective: policy %q does not emit %q (it emits: %s)", p, obj, strings.Join(names, ", "))
		}
	}
}

// workloadAxes are the generator axes shared by every domain that drives a
// job-trace workload (sched, autoscale): class, arrival, jobs, load.
func workloadAxes() map[string]AxisDef {
	return map[string]AxisDef{
		"class": {
			Check: func(v any) error {
				return checkName(v, func(s string) error { _, err := workload.ClassByName(s); return err })
			},
			Apply: func(sc *Scenario, v any) string {
				sc.Workload.Class = v.(string)
				sc.Workload.Trace = ""
				return v.(string)
			},
			Canon: func(v any) string {
				c, _ := workload.ClassByName(v.(string))
				return c.String()
			},
			Generative: true,
		},
		"arrival": {
			Check: func(v any) error {
				return checkName(v, func(s string) error { _, err := workload.ArrivalsByName(s, nil); return err })
			},
			Canon: func(v any) string { return strings.ToLower(v.(string)) },
			Apply: func(sc *Scenario, v any) string {
				name := v.(string)
				// Keep the base spec's parameter overrides when it names the
				// same family; other families start from their defaults.
				params := map[string]float64(nil)
				if a := sc.spec.Workload.Arrival; a != nil && strings.EqualFold(a.Process, name) {
					params = a.Params
				}
				sc.Workload.Arrival = &ArrivalSpec{Process: name, Params: params}
				return name
			},
			Generative: true,
		},
		"jobs": {
			Check: func(v any) error { return checkInt(v, 1) },
			Apply: func(sc *Scenario, v any) string {
				sc.Workload.Jobs = int(v.(float64))
				return formatValue(v)
			},
			Generative: true,
		},
		"load": {
			Check: func(v any) error { return checkFloat(v, 0) },
			Apply: func(sc *Scenario, v any) string {
				sc.Workload.Load = v.(float64)
				return formatValue(v)
			},
		},
		"clients": {
			Check: func(v any) error {
				if err := checkInt(v, 1); err != nil {
					return err
				}
				if v.(float64) > workload.MaxClients {
					return fmt.Errorf("got %v, must be <= %d", v, workload.MaxClients)
				}
				return nil
			},
			Apply: func(sc *Scenario, v any) string {
				sc.Workload.Clients = int(v.(float64))
				sc.Workload.Trace = ""
				return formatValue(v)
			},
			Generative: true,
		},
		"skew": {
			Check: func(v any) error {
				return checkName(v, func(s string) error { _, err := workload.ParseSkew(s); return err })
			},
			Canon: func(v any) string { return strings.ToLower(v.(string)) },
			Apply: func(sc *Scenario, v any) string {
				sc.Workload.Skew = strings.ToLower(v.(string))
				return sc.Workload.Skew
			},
			Generative: true,
		},
	}
}

func (schedDomain) Axes() map[string]AxisDef {
	axes := workloadAxes()
	axes["policy"] = AxisDef{
		Check: func(v any) error { return checkName(v, validPolicy) },
		Apply: func(sc *Scenario, v any) string {
			sc.Policy = v.(string)
			return v.(string)
		},
		// Resolve through the registry so any spelling sched accepts
		// ("easy-bf", "EASYBF") collapses to one canonical name.
		Canon: func(v any) string {
			if isPortfolio(v.(string)) {
				return PolicyPortfolio
			}
			p, _ := sched.PolicyByName(v.(string))
			return p.Name()
		},
	}
	axes["kind"] = AxisDef{
		Check: func(v any) error {
			return checkName(v, func(s string) error { _, err := cluster.KindByName(s); return err })
		},
		Apply: func(sc *Scenario, v any) string {
			sc.Cluster.Kind = v.(string)
			return v.(string)
		},
		Canon: func(v any) string {
			k, _ := cluster.KindByName(v.(string))
			return k.String()
		},
	}
	axes["sites"] = AxisDef{
		Check: func(v any) error { return checkInt(v, 1) },
		Apply: func(sc *Scenario, v any) string {
			sc.Cluster.Sites = int(v.(float64))
			return formatValue(v)
		},
	}
	axes["machines"] = AxisDef{
		Check: func(v any) error { return checkInt(v, 1) },
		Apply: func(sc *Scenario, v any) string {
			sc.Cluster.Machines = int(v.(float64))
			return formatValue(v)
		},
	}
	axes["cores"] = AxisDef{
		Check: func(v any) error { return checkInt(v, 1) },
		Apply: func(sc *Scenario, v any) string {
			sc.Cluster.Cores = int(v.(float64))
			return formatValue(v)
		},
	}
	return axes
}

// Run executes one sched cell: build the environment and trace, then run the
// named policy (or the portfolio scheduler) and emit its metrics. The
// simulations run on simulators borrowed from the cell's memo.
func (schedDomain) Run(sc *Scenario, workloadSeed, simSeed int64) ([]MetricValue, error) {
	env, envFactory, err := sc.buildEnv()
	if err != nil {
		return nil, err
	}
	tr, err := sc.buildTrace(workloadSeed, env.TotalCores())
	if err != nil {
		return nil, err
	}

	sims := sc.traces.simulators()
	if isPortfolio(sc.Policy) {
		ps := &portfolio.Scheduler{
			Policies:   sched.DefaultPortfolio(),
			Selector:   portfolio.Exhaustive{},
			WindowSize: 25,
			EnvFactory: envFactory,
			Seed:       simSeed,
			Simulators: sims,
		}
		res, err := ps.Run(tr)
		if err != nil {
			return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
		}
		return []MetricValue{
			{Name: MetricJobs, Value: float64(len(tr.Jobs))},
			{Name: MetricMeanResponse, Value: res.MeanResponse},
			{Name: MetricMeanSlowdown, Value: res.MeanSlowdown},
			{Name: MetricWindows, Value: float64(len(res.Choices))},
			{Name: MetricSelectionSims, Value: float64(res.TotalSimRuns)},
		}, nil
	}

	pol, err := sched.PolicyByName(sc.Policy)
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	s := sims.Get()
	defer sims.Put(s)
	s.Reset(env, tr, pol, simSeed)
	res, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	return []MetricValue{
		{Name: MetricJobs, Value: float64(res.Completed)},
		{Name: MetricMakespan, Value: float64(res.Makespan)},
		{Name: MetricMeanResponse, Value: res.MeanResponse},
		{Name: MetricMeanWait, Value: res.MeanWait},
		{Name: MetricMeanSlowdown, Value: res.MeanSlowdown},
		{Name: MetricUtilization, Value: res.UtilizationMean},
		{Name: MetricDeadlineMisses, Value: float64(res.DeadlineMisses)},
	}, nil
}

// buildEnv resolves the scenario's environment: the kind's calibrated
// standard shape, with any of sites/machines/cores overridden. The factory
// rebuilds fresh environments for the portfolio scheduler's what-if probes.
func (sc *Scenario) buildEnv() (*cluster.Environment, func() *cluster.Environment, error) {
	kind, sites, machines, cores, err := sc.envShape()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	factory := func() *cluster.Environment { return cluster.NewHomogeneous(kind, sites, machines, cores) }
	return factory(), factory, nil
}

// envShape resolves the cell's cluster kind and its sites, machines per
// site and cores per machine.
func (sc *Scenario) envShape() (kind cluster.Kind, sites, machines, cores int, err error) {
	kindName := sc.Cluster.Kind
	if kindName == "" {
		kindName = "CL"
	}
	if kind, err = cluster.KindByName(kindName); err != nil {
		return kind, 0, 0, 0, err
	}
	sites, machines, cores = cluster.StandardShape(kind)
	if sc.Cluster.Sites > 0 {
		sites = sc.Cluster.Sites
	}
	if sc.Cluster.Machines > 0 {
		machines = sc.Cluster.Machines
	}
	if sc.Cluster.Cores > 0 {
		cores = sc.Cluster.Cores
	}
	return kind, sites, machines, cores, nil
}

// widest reports the cell's machine width: every machine has cluster.cores
// cores.
func (schedDomain) widest(sc *Scenario) (string, int) {
	_, _, _, cores, err := sc.envShape()
	if err != nil {
		return "", 0
	}
	return "cluster.cores", cores
}
