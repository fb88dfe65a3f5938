package autoscale

import (
	"math"
	"math/rand"
	"testing"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

func TestReactTargetsDemand(t *testing.T) {
	obs := Observation{Demand: 17, Supply: 3}
	if got := (React{}).Target(obs); got != 17 {
		t.Errorf("React target = %d, want 17", got)
	}
}

func TestAdaptMovesGradually(t *testing.T) {
	a := Adapt{StepFraction: 0.5}
	up := a.Target(Observation{Demand: 20, Supply: 10})
	if up != 15 {
		t.Errorf("Adapt up = %d, want 15", up)
	}
	down := a.Target(Observation{Demand: 0, Supply: 10})
	if down != 5 {
		t.Errorf("Adapt down = %d, want 5", down)
	}
	flat := a.Target(Observation{Demand: 10, Supply: 10})
	if flat != 10 {
		t.Errorf("Adapt flat = %d, want 10", flat)
	}
	if got := a.Target(Observation{Demand: 0, Supply: 0}); got != 0 {
		t.Errorf("Adapt zero = %d", got)
	}
}

func TestHistUsesPercentile(t *testing.T) {
	h := Hist{Window: 10, Pct: 95}
	hist := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 20}
	got := h.Target(Observation{Demand: 5, History: hist})
	if got < 10 {
		t.Errorf("Hist target = %d, want >= 10 (95th pct of spiky history)", got)
	}
	// Without history, falls back to demand.
	if got := h.Target(Observation{Demand: 7}); got != 7 {
		t.Errorf("Hist fallback = %d, want 7", got)
	}
}

func TestRegExtrapolatesTrend(t *testing.T) {
	g := Reg{Window: 10}
	hist := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18} // slope 2 per eval
	got := g.Target(Observation{Demand: 18, History: hist, BootDelay: 60, EvalInterval: 30})
	// Prediction 2 eval-steps ahead: 18 + 2*2 = 22.
	if got < 20 {
		t.Errorf("Reg target = %d, want >= 20 (trend extrapolation)", got)
	}
	if got := g.Target(Observation{Demand: 9, History: []int{1, 2}}); got != 9 {
		t.Errorf("Reg short-history fallback = %d, want 9", got)
	}
}

func TestConPaaSWeightedAverage(t *testing.T) {
	c := ConPaaS{}
	got := c.Target(Observation{Demand: 10, History: []int{10, 10, 10, 10}})
	if got != 10 {
		t.Errorf("ConPaaS steady = %d, want 10", got)
	}
	rising := c.Target(Observation{Demand: 20, History: []int{5, 10, 15, 20}})
	if rising <= 15 {
		t.Errorf("ConPaaS rising = %d, want > 15", rising)
	}
	if got := c.Target(Observation{Demand: 4, History: []int{4}}); got != 4 {
		t.Errorf("ConPaaS single-point fallback = %d", got)
	}
}

func TestPlanAndTokenUseWorkflowInfo(t *testing.T) {
	obs := Observation{Demand: 10, SoonEligible: 8}
	if got := (Plan{}).Target(obs); got != 18 {
		t.Errorf("Plan = %d, want 18", got)
	}
	if got := (Token{}).Target(obs); got != 14 {
		t.Errorf("Token = %d, want 14 (damped)", got)
	}
	if !(Plan{}).WorkflowAware() || !(Token{}).WorkflowAware() {
		t.Error("Plan/Token must be workflow-aware")
	}
	if (React{}).WorkflowAware() {
		t.Error("React must not be workflow-aware")
	}
}

func smallTrace(t *testing.T, n int, seed int64) *workload.Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	return workload.StandardGenerator(workload.ClassScientific).Generate(n, r)
}

func TestVitroEngineCompletesAllJobs(t *testing.T) {
	tr := smallTrace(t, 10, 1)
	st, err := Run(DefaultVitroConfig(), React{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 10 {
		t.Errorf("JobsDone = %d, want 10", st.JobsDone)
	}
	if st.Series.Len() == 0 {
		t.Error("no supply/demand samples")
	}
	if st.CoreSeconds <= 0 {
		t.Errorf("CoreSeconds = %v", st.CoreSeconds)
	}
}

func TestSilicoEngineCompletesAllJobs(t *testing.T) {
	tr := smallTrace(t, 10, 1)
	st, err := Run(DefaultSilicoConfig(), React{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 10 {
		t.Errorf("JobsDone = %d, want 10", st.JobsDone)
	}
}

func TestAllAutoscalersCompleteBothEngines(t *testing.T) {
	tr := smallTrace(t, 8, 2)
	for _, as := range DefaultAutoscalers() {
		for _, cfg := range []EngineConfig{DefaultVitroConfig(), DefaultSilicoConfig()} {
			st, err := Run(cfg, as, tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", as.Name(), cfg.Kind, err)
			}
			if st.JobsDone != 8 {
				t.Errorf("%s/%s completed %d/8 jobs", as.Name(), cfg.Kind, st.JobsDone)
			}
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	tr := smallTrace(t, 2, 1)
	if _, err := Run(EngineConfig{Kind: InVitro}, React{}, tr); err == nil {
		t.Error("zero-step config accepted")
	}
	cfg := DefaultVitroConfig()
	cfg.Kind = EngineKind(99)
	if _, err := Run(cfg, React{}, tr); err == nil {
		t.Error("unknown engine kind accepted")
	}
}

func TestVitroRejectsCyclicTrace(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{{
		ID:    1,
		Tasks: []workload.Task{{ID: 1, Deps: []int{1}, CPUs: 1, Runtime: 1}},
	}}}
	if _, err := Run(DefaultVitroConfig(), React{}, tr); err == nil {
		t.Error("cyclic trace accepted")
	}
}

func TestComputeMetricsBasics(t *testing.T) {
	st := &RunStats{
		JobResponse: []float64{100, 200},
		JobSlowdown: []float64{2, 4},
		JobsDone:    2,
		CoreSeconds: 30,
	}
	supply := []int{0, 5, 10, 10, 5}
	demand := []int{10, 10, 10, 5, 5}
	for i := range supply {
		st.Series.Add(supply[i], demand[i])
	}
	m := ComputeMetrics(st)
	if m.TimeshareUnder != 0.4 { // steps 0,1 under
		t.Errorf("TimeshareUnder = %v, want 0.4", m.TimeshareUnder)
	}
	if m.TimeshareOver != 0.2 { // step 3 over
		t.Errorf("TimeshareOver = %v, want 0.2", m.TimeshareOver)
	}
	// Under: (10 + 5) / 5 steps / peak 10 = 0.3.
	if math.Abs(m.AccuracyUnder-0.3) > 1e-12 {
		t.Errorf("AccuracyUnder = %v, want 0.3", m.AccuracyUnder)
	}
	if m.MeanResponse != 150 || m.MeanSlowdown != 3 {
		t.Errorf("perf metrics = %v/%v", m.MeanResponse, m.MeanSlowdown)
	}
	if m.CoreSeconds != 30 {
		t.Errorf("CoreSeconds = %v", m.CoreSeconds)
	}
}

func TestComputeMetricsEmpty(t *testing.T) {
	m := ComputeMetrics(&RunStats{})
	if m.AccuracyUnder != 0 || m.MeanResponse != 0 {
		t.Errorf("empty metrics = %+v", m)
	}
}

func TestInstabilityDetectsOscillation(t *testing.T) {
	instability := func(supply ...int) float64 {
		var st RunStats
		for _, x := range supply {
			st.Series.Add(x, 0)
		}
		return ComputeMetrics(&st).Instability
	}
	osc := instability(0, 5, 0, 5, 0, 5)
	steady := instability(0, 1, 2, 3, 4, 5)
	if osc <= steady {
		t.Errorf("instability(oscillating)=%v <= instability(monotone)=%v", osc, steady)
	}
	if instability(1, 2) != 0 {
		t.Error("short series instability should be 0")
	}
}

func TestCostModels(t *testing.T) {
	perHour := CostModel{Name: "h", PricePerCoreHour: 1, Granularity: 3600}
	// 1 core-second -> rounded to 1 hour -> $1.
	if got := perHour.Cost(1); got != 1 {
		t.Errorf("per-hour cost = %v, want 1", got)
	}
	perSec := CostModel{Name: "s", PricePerCoreHour: 1, Granularity: 1}
	if got := perSec.Cost(1800); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("per-second cost = %v, want 0.5", got)
	}
	models := StandardCostModels()
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	// Finer granularity with slightly higher rate is cheaper for tiny usage.
	if models[2].Cost(10) >= models[0].Cost(10) {
		t.Error("per-second billing should beat per-hour for 10s usage")
	}
}

// TestMetricByName checks that every MetricNames key reads its own field.
func TestMetricByName(t *testing.T) {
	m := ElasticityMetrics{
		AccuracyUnder: 1, AccuracyOver: 2, TimeshareUnder: 3, TimeshareOver: 4,
		Instability: 5, Jitter: 6, MeanResponse: 7, MeanSlowdown: 8,
		CoreSeconds: 9, DeadlineMissPct: 10,
	}
	for i, name := range MetricNames() {
		if got := m.Metric(name); got != float64(i+1) {
			t.Errorf("Metric(%q) = %v, want %v", name, got, i+1)
		}
	}
	if got := m.Metric("no_such_metric"); got != 0 {
		t.Errorf("Metric of an unknown name = %v, want 0", got)
	}
}

func TestRankingsAndGrades(t *testing.T) {
	results := map[string]ElasticityMetrics{
		"good": {AccuracyUnder: 0.1, AccuracyOver: 0.1, MeanResponse: 10, MeanSlowdown: 1, CoreSeconds: 100},
		"bad":  {AccuracyUnder: 0.9, AccuracyOver: 0.9, MeanResponse: 100, MeanSlowdown: 9, CoreSeconds: 1000},
	}
	order := RankByMetric(results, "mean_response")
	if order[0] != "good" {
		t.Errorf("rank order = %v", order)
	}
	avg := AverageRank(results)
	if avg["good"] >= avg["bad"] {
		t.Errorf("avg ranks: good=%v bad=%v", avg["good"], avg["bad"])
	}
	h2h := HeadToHead(results)
	if h2h["good"]["bad"] <= h2h["bad"]["good"] {
		t.Errorf("head-to-head: %v", h2h)
	}
	grades := Grade(results)
	if grades["good"] >= grades["bad"] {
		t.Errorf("grades: %v", grades)
	}
	if math.Abs(grades["good"]-1) > 1e-6 {
		t.Errorf("dominant autoscaler grade = %v, want 1.0", grades["good"])
	}
}

func TestWorkflowAwareBeatsReactiveOnWait(t *testing.T) {
	// On a workflow-heavy workload, Plan should respond no worse than React:
	// it pre-provisions for soon-eligible tasks, so mean response should not
	// be dramatically worse, and typically better.
	tr := smallTrace(t, 20, 7)
	planStats, err := Run(DefaultVitroConfig(), Plan{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	reactStats, err := Run(DefaultVitroConfig(), React{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	pm, rm := ComputeMetrics(planStats), ComputeMetrics(reactStats)
	if pm.MeanResponse > rm.MeanResponse*1.25 {
		t.Errorf("Plan mean response %v much worse than React %v", pm.MeanResponse, rm.MeanResponse)
	}
}

func TestRunExperimentCorroboration(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment is slow")
	}
	res, err := RunExperiment(ExperimentConfig{Jobs: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vitro) != 7 || len(res.Silico) != 7 {
		t.Fatalf("engines covered %d/%d autoscalers", len(res.Vitro), len(res.Silico))
	}
	// The paper's finding: rankings corroborate (positive correlation) but
	// are not identical (discrepancies exist). We assert the positive part;
	// identity would only be suspicious, not wrong.
	if math.IsNaN(res.RankCorrelation) {
		t.Fatal("rank correlation is NaN")
	}
	if res.RankCorrelation <= 0 {
		t.Errorf("vitro/silico rank correlation = %v, want positive", res.RankCorrelation)
	}
	if len(res.CostByModel) != 3 {
		t.Errorf("cost models = %d, want 3", len(res.CostByModel))
	}
	for model, costs := range res.CostByModel {
		for name, c := range costs {
			if c <= 0 {
				t.Errorf("cost %s/%s = %v, want > 0", model, name, c)
			}
		}
	}
}

func TestEngineKindString(t *testing.T) {
	if InVitro.String() != "in-vitro" || InSilico.String() != "in-silico" {
		t.Error("EngineKind strings wrong")
	}
}

func TestDeadlineMissesCounted(t *testing.T) {
	// One job with an impossible deadline.
	tr := &workload.Trace{Jobs: []*workload.Job{{
		ID:       1,
		Submit:   0,
		Deadline: 1,
		Tasks:    []workload.Task{{ID: 1, CPUs: 1, Runtime: sim.Duration(500), RuntimeEstimate: 500}},
	}}}
	st, err := Run(DefaultVitroConfig(), React{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineMiss != 1 {
		t.Errorf("DeadlineMiss = %d, want 1", st.DeadlineMiss)
	}
	m := ComputeMetrics(st)
	if m.DeadlineMissPct != 100 {
		t.Errorf("DeadlineMissPct = %v, want 100", m.DeadlineMissPct)
	}
}
