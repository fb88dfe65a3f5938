package portfolio

import (
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
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
	chosen, runs := Exhaustive{}.Select(policies, scoreOn(t, tr, policies, 1), 1)
	if chosen < 0 || chosen >= len(policies) {
		t.Fatal("no policy chosen")
	}
	if runs != len(policies) {
		t.Errorf("simRuns = %d, want %d", runs, len(policies))
	}
}

func TestActiveSetLimitsSimulations(t *testing.T) {
	tr := genTrace(t, workload.ClassSynthetic, 20, 1)
	policies := sched.DefaultPortfolio()
	as := NewActiveSet(2, 0)
	_, runs1 := as.Select(policies, scoreOn(t, tr, policies, 1), 1)
	if runs1 != len(policies) {
		t.Errorf("first round simRuns = %d, want full set %d", runs1, len(policies))
	}
	_, runs2 := as.Select(policies, scoreOn(t, tr, policies, 2), 2)
	if runs2 != 2 {
		t.Errorf("second round simRuns = %d, want K=2", runs2)
	}
}

func TestActiveSetRefresh(t *testing.T) {
	tr := genTrace(t, workload.ClassSynthetic, 15, 1)
	policies := sched.DefaultPortfolio()
	as := NewActiveSet(2, 3)
	_, _ = as.Select(policies, scoreOn(t, tr, policies, 1), 1) // round 1: full
	_, r2 := as.Select(policies, scoreOn(t, tr, policies, 2), 2)
	_, r3 := as.Select(policies, scoreOn(t, tr, policies, 3), 3) // round 3: refresh
	if r2 != 2 {
		t.Errorf("round 2 = %d sims, want 2", r2)
	}
	if r3 != len(policies) {
		t.Errorf("refresh round = %d sims, want %d", r3, len(policies))
	}
}

func TestQLearningNeverSimulates(t *testing.T) {
	policies := sched.DefaultPortfolio()
	q := NewQLearning(0.1, 0.5)
	totalSims, scored := 0, 0
	score := func(int) float64 { scored++; return 1 }
	for i := 0; i < 20; i++ {
		p, sims := q.Select(policies, score, int64(i))
		totalSims += sims
		q.Observe(policies[p], 2.0)
	}
	if totalSims != 0 || scored != 0 {
		t.Errorf("q-learning reported %d simulations and scored %d, want 0", totalSims, scored)
	}
}

func TestQLearningExploresAllThenExploits(t *testing.T) {
	policies := sched.DefaultPortfolio()
	q := NewQLearning(0, 0.5) // no epsilon exploration
	seen := map[string]bool{}
	// First len(policies) rounds must try every policy once.
	for i := 0; i < len(policies); i++ {
		i, _ := q.Select(policies, nil, 1)
		p := policies[i]
		seen[p.Name()] = true
		// Make FCFS look best, everything else bad.
		if p.Name() == "FCFS" {
			q.Observe(p, 1.0)
		} else {
			q.Observe(p, 10.0)
		}
	}
	if len(seen) != len(policies) {
		t.Fatalf("explored %d distinct policies, want %d", len(seen), len(policies))
	}
	p, _ := q.Select(policies, nil, 1)
	if policies[p].Name() != "FCFS" {
		t.Errorf("exploit chose %s, want FCFS", policies[p].Name())
	}
}

func TestSchedulerRunCompletes(t *testing.T) {
	tr := genTrace(t, workload.ClassScientific, 60, 3)
	s := &Scheduler{
		Policies:   sched.DefaultPortfolio(),
		Selector:   Exhaustive{},
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

func TestSchedulerRejectsBadConfig(t *testing.T) {
	tr := genTrace(t, workload.ClassSynthetic, 5, 1)
	s := &Scheduler{Selector: Exhaustive{}, WindowSize: 10, EnvFactory: smallEnvFactory}
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
		Selector:   Exhaustive{},
		WindowSize: 20,
		EnvFactory: smallEnvFactory,
		Seed:       5,
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.StaticBaselines(tr)
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
	rows, err := RunTable9(cfg)
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
