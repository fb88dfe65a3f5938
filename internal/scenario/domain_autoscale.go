package scenario

import (
	"fmt"
	"strings"

	"atlarge/internal/autoscale"
)

// Metric names emitted by autoscale-domain scenario runs: the §6.7
// elasticity set plus the traditional performance and cost metrics. Every
// one of them is lower-is-better.
const (
	MetricAccuracyUnder   = "accuracy_under"
	MetricAccuracyOver    = "accuracy_over"
	MetricTimeshareUnder  = "timeshare_under"
	MetricTimeshareOver   = "timeshare_over"
	MetricInstability     = "instability"
	MetricJitter          = "jitter"
	MetricCoreSeconds     = "core_seconds"
	MetricDeadlineMissPct = "deadline_miss_pct"
)

func init() { MustRegisterDomain(autoscaleDomain{}) }

// autoscaleDomain opens the §6.7 elasticity testbed to the scenario engine:
// any of the seven autoscalers, under the event-driven in-vitro or in-silico
// engine, on a generated or imported workload, judged by the Herbst-style
// elasticity metrics.
type autoscaleDomain struct{}

func (autoscaleDomain) Name() string { return "autoscale" }

func (autoscaleDomain) DefaultObjective() string { return MetricMeanResponse }

func (autoscaleDomain) Metrics() []MetricDef {
	return []MetricDef{
		{Name: MetricAccuracyOver},
		{Name: MetricAccuracyUnder},
		{Name: MetricCoreSeconds},
		{Name: MetricDeadlineMissPct},
		{Name: MetricInstability},
		{Name: MetricJitter},
		{Name: MetricJobs},
		{Name: MetricMeanResponse},
		{Name: MetricMeanSlowdown},
		{Name: MetricTimeshareOver},
		{Name: MetricTimeshareUnder},
	}
}

func (d autoscaleDomain) Validate(s *Spec, bad func(string, ...any)) {
	rejectSection(s.MMOG != nil, "mmog", d.Name(), bad)
	rejectSection(s.Policy != "", "policy", d.Name(), bad)
	rejectSection(s.Cluster != (ClusterSpec{}), "cluster", d.Name(), bad)
	s.validateWorkloadSpec(bad)

	a := s.Autoscale
	if a == nil {
		a = &AutoscaleSpec{}
	}
	if a.Autoscaler == "" {
		if _, ok := s.Sweep["autoscaler"]; !ok {
			bad("autoscale.autoscaler: required unless swept (known: %s)",
				strings.Join(autoscale.Names(), ", "))
		}
	} else if _, err := autoscale.ByName(a.Autoscaler); err != nil {
		bad("autoscale.autoscaler: %v", err)
	}
	if a.Engine != "" {
		if _, err := autoscale.KindByName(a.Engine); err != nil {
			bad("autoscale.engine: %v", err)
		}
	}
	for _, dim := range []struct {
		name string
		v    float64
	}{{"boot_delay_s", a.BootDelay}, {"eval_interval_s", a.EvalInterval}} {
		if dim.v < 0 {
			bad("autoscale.%s: got %g, must be >= 0 (0 means the engine default)", dim.name, dim.v)
		}
	}
	for _, dim := range []struct {
		name string
		v    int
	}{{"max_cores", a.MaxCores}, {"core_per_vm", a.CorePerVM}} {
		if dim.v < 0 {
			bad("autoscale.%s: got %d, must be >= 0 (0 means the engine default)", dim.name, dim.v)
		}
	}
}

func (autoscaleDomain) Axes() map[string]AxisDef {
	axes := workloadAxes()
	axes["autoscaler"] = AxisDef{
		Check: func(v any) error {
			return checkName(v, func(s string) error { _, err := autoscale.ByName(s); return err })
		},
		Apply: func(sc *Scenario, v any) string {
			sc.Autoscale.Autoscaler = v.(string)
			return v.(string)
		},
		Canon: func(v any) string {
			as, _ := autoscale.ByName(v.(string))
			return as.Name()
		},
	}
	axes["engine"] = AxisDef{
		Check: func(v any) error {
			return checkName(v, func(s string) error { _, err := autoscale.KindByName(s); return err })
		},
		Apply: func(sc *Scenario, v any) string {
			sc.Autoscale.Engine = v.(string)
			return v.(string)
		},
		Canon: func(v any) string {
			k, _ := autoscale.KindByName(v.(string))
			return k.String()
		},
	}
	axes["boot_delay"] = AxisDef{
		// 0 is the unswept "engine default" sentinel in the spec section; a
		// swept 0 would silently run 60s boots under a boot_delay=0 label.
		Check: func(v any) error {
			if err := checkFloat(v, 0); err != nil {
				return err
			}
			if v.(float64) == 0 {
				return fmt.Errorf("got 0; a swept boot delay must be > 0 (0 means the engine default)")
			}
			return nil
		},
		Apply: func(sc *Scenario, v any) string {
			sc.Autoscale.BootDelay = v.(float64)
			return formatValue(v)
		},
	}
	axes["max_cores"] = AxisDef{
		Check: func(v any) error { return checkInt(v, 1) },
		Apply: func(sc *Scenario, v any) string {
			sc.Autoscale.MaxCores = int(v.(float64))
			return formatValue(v)
		},
	}
	return axes
}

// engineConfig resolves the cell's engine configuration from the engine
// kind's defaults plus the spec's overrides.
func (sc *Scenario) engineConfig() (autoscale.EngineConfig, error) {
	a := sc.Autoscale
	kind := autoscale.InVitro
	if a.Engine != "" {
		var err error
		kind, err = autoscale.KindByName(a.Engine)
		if err != nil {
			return autoscale.EngineConfig{}, err
		}
	}
	cfg := autoscale.DefaultVitroConfig()
	if kind == autoscale.InSilico {
		cfg = autoscale.DefaultSilicoConfig()
	}
	if a.BootDelay > 0 {
		cfg.BootDelay = a.BootDelay
	}
	if a.EvalInterval > 0 {
		cfg.EvalInterval = a.EvalInterval
	}
	if a.MaxCores > 0 {
		cfg.MaxCores = a.MaxCores
	}
	if a.CorePerVM > 0 {
		cfg.CorePerVM = a.CorePerVM
	}
	return cfg, nil
}

// widest reports the cell's machine width: the provider pools its VMs'
// cores. The engines boot whole VMs while capacity is below
// autoscale.max_cores and release single idle cores, so capacity can sit
// at max_cores - 1 and then gain one VM: no task wider than
// max_cores + core_per_vm - 1 can start.
func (autoscaleDomain) widest(sc *Scenario) (string, int) {
	cfg, err := sc.engineConfig()
	if err != nil {
		return "", 0
	}
	return "autoscale.max_cores + core_per_vm - 1", cfg.MaxCores + cfg.CorePerVM - 1
}

// Run executes one autoscale cell: generate (or import) the workload under
// the paired workload seed, then run the autoscaler on the event-driven
// engine and emit the elasticity metrics.
func (autoscaleDomain) Run(sc *Scenario, workloadSeed, simSeed int64) ([]MetricValue, error) {
	cfg, err := sc.engineConfig()
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	cfg.Seed = simSeed
	as, err := autoscale.ByName(sc.Autoscale.Autoscaler)
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	// The offered-load target is relative to the provider's capacity cap.
	tr, hc, err := sc.buildTrace(workloadSeed, cfg.MaxCores)
	if err != nil {
		return nil, err
	}
	defer sc.traces.putHeaders(hc)
	st, err := autoscale.Run(cfg, as, tr)
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	m := autoscale.ComputeMetrics(st)
	return []MetricValue{
		{Name: MetricJobs, Value: float64(st.JobsDone)},
		{Name: MetricMeanResponse, Value: m.MeanResponse},
		{Name: MetricMeanSlowdown, Value: m.MeanSlowdown},
		{Name: MetricAccuracyUnder, Value: m.AccuracyUnder},
		{Name: MetricAccuracyOver, Value: m.AccuracyOver},
		{Name: MetricTimeshareUnder, Value: m.TimeshareUnder},
		{Name: MetricTimeshareOver, Value: m.TimeshareOver},
		{Name: MetricInstability, Value: m.Instability},
		{Name: MetricJitter, Value: m.Jitter},
		{Name: MetricCoreSeconds, Value: m.CoreSeconds},
		{Name: MetricDeadlineMissPct, Value: m.DeadlineMissPct},
	}, nil
}
