package sched

import (
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// tinyEnv returns a single cluster of one 4-core machine.
func tinyEnv() *cluster.Environment {
	return cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
}

// runWithStats runs tr and returns the per-job stats the OnJob hook
// reports, in completion order.
func runWithStats(env *cluster.Environment, tr *workload.Trace, p Policy, seed int64) (*Result, []JobStats, error) {
	s := new(Simulator)
	s.Reset(env, tr, p, seed)
	var jobs []JobStats
	s.OnJob = func(js JobStats) { jobs = append(jobs, js) }
	res, err := s.Run()
	return res, jobs, err
}

// byJobID indexes per-job stats by job ID.
func byJobID(jobs []JobStats) map[int]JobStats {
	m := make(map[int]JobStats, len(jobs))
	for _, js := range jobs {
		m[js.JobID] = js
	}
	return m
}

// mkJob builds a single-task job.
func mkJob(id int, submit sim.Time, cpus int, runtime sim.Duration) *workload.Job {
	return &workload.Job{
		ID:     id,
		Submit: submit,
		Tasks: []workload.Task{{
			ID: id*100 + 1, JobID: id, CPUs: cpus,
			Runtime: runtime, RuntimeEstimate: runtime,
		}},
	}
}

func TestFCFSSingleJob(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{mkJob(1, 0, 2, 100)}}
	res, jobs, err := runWithStats(tinyEnv(), tr, FCFS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || res.Completed != 1 {
		t.Fatalf("completed %d jobs (hook saw %d), want 1", res.Completed, len(jobs))
	}
	js := jobs[0]
	if js.Wait != 0 || js.Response != 100 || js.Finish != 100 {
		t.Errorf("job stats = %+v", js)
	}
	if res.Makespan != 100 {
		t.Errorf("Makespan = %v, want 100", res.Makespan)
	}
}

func TestFCFSQueuesWhenFull(t *testing.T) {
	// Two 4-core jobs on a 4-core machine: second waits for first.
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 4, 50),
		mkJob(2, 0, 4, 50),
	}}
	res, jobs, err := runWithStats(tinyEnv(), tr, FCFS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100 {
		t.Errorf("Makespan = %v, want 100 (serialized)", res.Makespan)
	}
	if second := byJobID(jobs)[2]; second.Wait != 50 {
		t.Errorf("second job wait = %v, want 50", second.Wait)
	}
}

func TestStrictFCFSBlocksBackfill(t *testing.T) {
	// Job1 occupies 3 cores for 100s. Job2 needs 4 cores (blocked).
	// Job3 needs 1 core and could run, but strict FCFS must not let it pass
	// job2.
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 3, 100),
		mkJob(2, 1, 4, 10),
		mkJob(3, 2, 1, 10),
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, FCFS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	if byID[3].Start < byID[2].Start {
		t.Errorf("strict FCFS let job3 (start %v) pass job2 (start %v)",
			byID[3].Start, byID[2].Start)
	}
}

func TestGreedyBackfillSkipsBlockedHead(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 3, 100),
		mkJob(2, 1, 4, 10),
		mkJob(3, 2, 1, 10),
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, GreedyBackfill(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	if byID[3].Start >= byID[2].Start {
		t.Errorf("greedy backfill did not let job3 (start %v) pass job2 (start %v)",
			byID[3].Start, byID[2].Start)
	}
	if byID[3].Start != 2 {
		t.Errorf("job3 start = %v, want 2 (immediate backfill)", byID[3].Start)
	}
}

func TestEASYBackfillRespectsReservation(t *testing.T) {
	// Machine: 4 cores. Job1: 3 cores until t=100. Job2 (head): 4 cores.
	// Head reservation is t=100. Job3: 1 core, 200s -> would finish at 202,
	// delaying the head; EASY must hold it. Job4: 1 core, 50s -> fits before
	// the reservation; EASY backfills it.
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 3, 100),
		mkJob(2, 1, 4, 10),
		mkJob(3, 2, 1, 200),
		mkJob(4, 3, 1, 50),
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, EASYBackfill(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	if byID[4].Start != 3 {
		t.Errorf("job4 start = %v, want 3 (EASY backfill)", byID[4].Start)
	}
	if byID[3].Start < byID[2].Start {
		t.Errorf("job3 (start %v) delayed head job2 (start %v)", byID[3].Start, byID[2].Start)
	}
}

func TestSJFOrdersShortFirst(t *testing.T) {
	// Both submitted together; machine fits one at a time.
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 4, 100),
		mkJob(2, 0, 4, 10),
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, SJF(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	if byID[2].Start != 0 || byID[1].Start != 10 {
		t.Errorf("SJF starts: job2=%v job1=%v, want 0 and 10", byID[2].Start, byID[1].Start)
	}
}

func TestLJFOrdersLongFirst(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{
		mkJob(1, 0, 4, 10),
		mkJob(2, 0, 4, 100),
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, LJF(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	if byID[2].Start != 0 {
		t.Errorf("LJF did not start long job first: %v", byID[2].Start)
	}
}

func TestWorkflowDependenciesRespected(t *testing.T) {
	job := &workload.Job{
		ID:     1,
		Submit: 0,
		Tasks: []workload.Task{
			{ID: 1, JobID: 1, CPUs: 1, Runtime: 10, RuntimeEstimate: 10},
			{ID: 2, JobID: 1, CPUs: 1, Runtime: 20, RuntimeEstimate: 20, Deps: []int{1}},
			{ID: 3, JobID: 1, CPUs: 1, Runtime: 5, RuntimeEstimate: 5, Deps: []int{1}},
			{ID: 4, JobID: 1, CPUs: 1, Runtime: 1, RuntimeEstimate: 1, Deps: []int{2, 3}},
		},
	}
	tr := &workload.Trace{Jobs: []*workload.Job{job}}
	_, jobs, err := runWithStats(tinyEnv(), tr, FCFS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path: 10 + 20 + 1 = 31; plenty of cores so response = 31.
	if jobs[0].Response != 31 {
		t.Errorf("workflow response = %v, want 31 (critical path)", jobs[0].Response)
	}
}

func TestDeadlineAccounting(t *testing.T) {
	j1 := mkJob(1, 0, 4, 100)
	j1.Deadline = 150
	j2 := mkJob(2, 0, 4, 100) // must wait 100 -> response 200
	j2.Deadline = 150
	tr := &workload.Trace{Jobs: []*workload.Job{j1, j2}}
	s := new(Simulator)
	s.Reset(tinyEnv(), tr, FCFS(), 1)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 1 {
		t.Errorf("DeadlineMisses = %d, want 1", res.DeadlineMisses)
	}
}

func TestUtilizationBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := workload.StandardGenerator(workload.ClassSynthetic).Generate(50, r)
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	s := new(Simulator)
	s.Reset(env, tr, GreedyBackfill(), 1)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.UtilizationMean < 0 || res.UtilizationMean > 1 {
		t.Errorf("UtilizationMean = %v out of [0,1]", res.UtilizationMean)
	}
	if res.Completed != 50 {
		t.Errorf("completed %d jobs, want 50", res.Completed)
	}
}

func TestAllPoliciesCompleteAllJobs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(40, r)
	factory := func() *cluster.Environment {
		return cluster.NewHomogeneous(cluster.KindCluster, 1, 8, 8)
	}
	s := new(Simulator)
	for _, p := range DefaultPortfolio() {
		s.Reset(factory(), tr, p, 7)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 40 {
			t.Errorf("policy %s completed %d/40 jobs", p.Name(), res.Completed)
		}
		if res.MeanSlowdown < 1 {
			t.Errorf("policy %s mean slowdown %v < 1", p.Name(), res.MeanSlowdown)
		}
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr := workload.StandardGenerator(workload.ClassSynthetic).Generate(30, r)
	run := func() *Result {
		s := new(Simulator)
		s.Reset(cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 8), tr, RandomOrder(), 5)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run().MeanResponse != run().MeanResponse {
		t.Error("Random policy not deterministic for fixed seed")
	}
}

func TestCloneTraceIsolation(t *testing.T) {
	tr := &workload.Trace{Jobs: []*workload.Job{mkJob(1, 0, 1, 10)}}
	cp := tr.Clone()
	cp.Jobs[0].Tasks[0].Runtime = 99
	if tr.Jobs[0].Tasks[0].Runtime != 10 {
		t.Error("Clone shares task storage")
	}
}

func TestInvalidDAGRejected(t *testing.T) {
	job := &workload.Job{ID: 1, Tasks: []workload.Task{{ID: 1, Deps: []int{1}, CPUs: 1, Runtime: 1}}}
	tr := &workload.Trace{Jobs: []*workload.Job{job}}
	s := new(Simulator)
	s.Reset(tinyEnv(), tr, FCFS(), 1)
	if _, err := s.Run(); err == nil {
		t.Error("cyclic job accepted")
	}
}

func TestFairShareBalancesJobs(t *testing.T) {
	// Job 1: 8 tasks of 10s. Job 2: 8 tasks of 10s, submitted together on a
	// 1x4 machine. FairShare should interleave; both jobs should finish at
	// similar times, unlike FCFS where job 2 finishes strictly last.
	var tasks1, tasks2 []workload.Task
	for i := 0; i < 8; i++ {
		tasks1 = append(tasks1, workload.Task{ID: 100 + i, JobID: 1, CPUs: 1, Runtime: 10, RuntimeEstimate: 10})
		tasks2 = append(tasks2, workload.Task{ID: 200 + i, JobID: 2, CPUs: 1, Runtime: 10, RuntimeEstimate: 10})
	}
	tr := &workload.Trace{Jobs: []*workload.Job{
		{ID: 1, Submit: 0, Tasks: tasks1},
		{ID: 2, Submit: 0, Tasks: tasks2},
	}}
	_, jobs, err := runWithStats(tinyEnv(), tr, FairShare(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byID := byJobID(jobs)
	gap := byID[2].Finish - byID[1].Finish
	if gap < 0 {
		gap = -gap
	}
	if gap > 10 {
		t.Errorf("fair-share finish gap = %v, want <= 10 (interleaving)", gap)
	}
}
