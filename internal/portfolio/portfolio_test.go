package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/exec"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

func smallEnvFactory() *cluster.Environment {
	return cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
}

func genTrace(t *testing.T, class workload.Class, n int, seed int64) *workload.Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	return workload.StandardGenerator(class).Generate(n, r)
}

// scoreOn returns the selector score callback for tr simulated as one
// window on smallEnvFactory.
func scoreOn(t *testing.T, tr *workload.Trace, policies []sched.Policy, seed int64) func(int) float64 {
	t.Helper()
	s := &Scheduler{Policies: policies, WindowSize: len(tr.Jobs), EnvFactory: smallEnvFactory, Seed: seed}
	runs, err := s.windowRuns(tr)
	if err != nil {
		t.Fatal(err)
	}
	return runs.score(0)
}

func TestEstimateTraceSwapsRuntimes(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{{
		ID: 1,
		Tasks: []workload.Task{
			{ID: 1, Runtime: 100, RuntimeEstimate: 50, CPUs: 1},
		},
	}}}
	est := estimateTrace(tr)
	if est.Jobs[0].Tasks[0].Runtime != 50 {
		t.Errorf("estimated runtime = %v, want 50", est.Jobs[0].Tasks[0].Runtime)
	}
	if tr.Jobs[0].Tasks[0].Runtime != 100 {
		t.Error("estimateTrace mutated the source trace")
	}
}

func TestExhaustiveSelectsAPolicy(t *testing.T) {
	tr := genTrace(t, workload.ClassSynthetic, 20, 1)
	policies := sched.DefaultPortfolio()
	chosen, runs := selectExhaustive(len(policies), scoreOn(t, tr, policies, 1))
	if chosen < 0 || chosen >= len(policies) {
		t.Fatal("no policy chosen")
	}
	if runs != len(policies) {
		t.Errorf("simRuns = %d, want %d", runs, len(policies))
	}
	scores := []float64{3, 1, 2, 1}
	if chosen, _ := selectExhaustive(len(scores), func(i int) float64 { return scores[i] }); chosen != 1 {
		t.Errorf("chose %d among tied minima 1 and 3, want the lowest index 1", chosen)
	}
}

func TestSchedulerRunCompletes(t *testing.T) {
	tr := genTrace(t, workload.ClassScientific, 60, 3)
	s := &Scheduler{
		Policies:   sched.DefaultPortfolio(),
		WindowSize: 20,
		EnvFactory: smallEnvFactory,
		Seed:       1,
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != 3 {
		t.Errorf("windows = %d, want 3", len(res.Choices))
	}
	if res.MeanSlowdown < 1 {
		t.Errorf("MeanSlowdown = %v, want >= 1", res.MeanSlowdown)
	}
	if res.TotalSimRuns != 3*len(s.Policies) {
		t.Errorf("TotalSimRuns = %d, want %d", res.TotalSimRuns, 3*len(s.Policies))
	}
}

// comparePanics is a policy whose Compare panics, as a simulator invariant
// failure would.
type comparePanics struct{ namedPolicy }

func (comparePanics) Compare(a, b *sched.TaskState) int { panic("compare") }

// TestSchedulerPanicFailsOnlyItsTask runs a portfolio scheduler whose
// selection simulations panic inside an exec task: the selector scores on
// the task's goroutine, so exec recovers the panic into the task's error
// and the process survives.
func TestSchedulerPanicFailsOnlyItsTask(t *testing.T) {
	tr := genTrace(t, workload.ClassScientific, 60, 3)
	var p exec.Plan[*Result]
	p.Add("portfolio", func(context.Context) (*Result, error) {
		return (&Scheduler{
			Policies:   []sched.Policy{sched.DefaultPortfolio()[0], comparePanics{"panics"}},
			WindowSize: 20,
			EnvFactory: smallEnvFactory,
			Seed:       1,
		}).Run(tr)
	})
	_, errs := exec.Run(context.Background(), &p, exec.Options[*Result]{})
	var pe *exec.PanicError
	if !errors.As(errs[0], &pe) || pe.Value != "compare" {
		t.Fatalf("task error = %v, want the recovered Compare panic", errs[0])
	}
}

func TestSchedulerRejectsBadConfig(t *testing.T) {
	tr := genTrace(t, workload.ClassSynthetic, 5, 1)
	s := &Scheduler{WindowSize: 10, EnvFactory: smallEnvFactory}
	if _, err := s.Run(tr); err == nil {
		t.Error("empty policy set accepted")
	}
	s.Policies = sched.DefaultPortfolio()
	s.WindowSize = 0
	if _, err := s.Run(tr); err == nil {
		t.Error("zero window size accepted")
	}
}

func TestPortfolioBeatsWorstStatic(t *testing.T) {
	tr := genTrace(t, workload.ClassScientific, 80, 5)
	s := &Scheduler{
		Policies:   sched.DefaultPortfolio(),
		WindowSize: 20,
		EnvFactory: smallEnvFactory,
		Seed:       5,
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.windowRuns(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.staticBaselines(runs)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, v := range base {
		if v > worst {
			worst = v
		}
	}
	if res.MeanSlowdown > worst {
		t.Errorf("portfolio slowdown %v worse than worst static %v", res.MeanSlowdown, worst)
	}
}

func TestRunTable9ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("table 9 sweep is slow")
	}
	cfg := Table9Config{JobsPerRow: 60, WindowSize: 15, Seed: 42}
	rows, err := RunTable9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	useful := 0
	for _, row := range rows {
		if row.Portfolio <= 0 || row.BestStatic <= 0 {
			t.Errorf("row %s has non-positive slowdowns: %+v", row.Study, row)
		}
		if row.Portfolio <= row.WorstStatic {
			useful++
		}
	}
	// Shape: portfolio scheduling is no worse than the worst static policy
	// in the (large) majority of rows.
	if useful < 5 {
		t.Errorf("portfolio beat worst-static in only %d/7 rows", useful)
	}
	// The big-data row exists and carries its co-evolved question.
	last := rows[6]
	if last.Workload != "BD" || last.NewQuestion != "BD limits?" {
		t.Errorf("last row = %+v, want BD row", last)
	}
}

func TestMixedTraceValidAndInterleaved(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := mixedTrace([]workload.Class{workload.ClassScientific, workload.ClassGaming}, 10, r)
	if len(tr.Jobs) != 20 {
		t.Fatalf("jobs = %d, want 20", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("mixed trace invalid: %v", err)
	}
	seenIDs := map[int]bool{}
	classes := map[workload.Class]bool{}
	for _, j := range tr.Jobs {
		if seenIDs[j.ID] {
			t.Fatalf("duplicate job id %d", j.ID)
		}
		seenIDs[j.ID] = true
		classes[j.Class] = true
	}
	if len(classes) != 2 {
		t.Errorf("classes present = %d, want 2", len(classes))
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatal("mixed trace not sorted by submit")
		}
	}
}

func TestCompositeEnv(t *testing.T) {
	env := compositeEnv([]cluster.Kind{cluster.KindGrid, cluster.KindCloud})
	wantClusters := 4 + 1
	if len(env.Clusters) != wantClusters {
		t.Errorf("clusters = %d, want %d", len(env.Clusters), wantClusters)
	}
	single := compositeEnv([]cluster.Kind{cluster.KindCluster})
	if len(single.Clusters) != 1 {
		t.Errorf("single env clusters = %d", len(single.Clusters))
	}
}
