package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// pinnedResults holds the IEEE-754 bits of every Result field for each
// registered policy on four workload classes (300 jobs from seed 5, one
// cluster of 4×8 cores, simulation seed 1). They were recorded from the
// original materialized Run, which kept its own per-job aggregator, before
// Run and RunSource were merged into one feed/aggregate path; any change to
// event order or to the aggregation arithmetic shows up here as a bit flip.
var pinnedResults = []struct {
	class           string
	policy          string // registry name
	name            string // Result.Policy
	completed       int
	makespan        uint64
	meanSlowdown    uint64
	meanResponse    uint64
	meanWait        uint64
	utilizationMean uint64
	deadlineMisses  int
	horizon         uint64
}{
	{"Syn", "easy-bf", "EASY-BF", 300, 0x40b973cd5d130ad2, 0x3ff649b85c62c038, 0x4072ececbce0d36f, 0x4045d5e0eb53a28f, 0x3fee78e1c0f62332, 0, 0x40b986b1a04319f9},
	{"Syn", "fairshare", "FairShare", 300, 0x40b94ec20d0b4d9f, 0x3ff6385fd5176ba6, 0x4073ff364d5bd6f7, 0x40314323b7b6b4f7, 0x3fee7bcbe95d4a87, 0, 0x40b961a6503b5cc6},
	{"Syn", "fcfs", "FCFS", 300, 0x40b973cd5d130ad2, 0x3ff649b85c62c038, 0x4072ececbce0d36f, 0x4045d5e0eb53a28f, 0x3fee78e1c0f62332, 0, 0x40b986b1a04319f9},
	{"Syn", "greedy-bf", "GreedyBF", 300, 0x40b973cd5d130ad2, 0x3ff649b85c62c038, 0x4072ececbce0d36f, 0x4045d5e0eb53a28f, 0x3fee78e1c0f62332, 0, 0x40b986b1a04319f9},
	{"Syn", "ljf", "LJF", 300, 0x40b927e996c96206, 0x400b5c9c6432c76f, 0x407bbd9f315ce461, 0x40411100e8754e13, 0x3fee5e698fcad33b, 0, 0x40b93acdd9f9712d},
	{"Syn", "random", "Random", 300, 0x40b9678e6fedf6d0, 0x3ff877f7541ebff8, 0x407385d899b39c31, 0x40317bda077f3783, 0x3fee76374781144c, 0, 0x40b97a72b31e05f7},
	{"Syn", "sjf", "SJF", 300, 0x40b971b4f18ade4e, 0x3ff3d4588c4fdb7b, 0x4073dabf60c4d2b2, 0x401a6eb045ab7e79, 0x3fee8465fb39af70, 0, 0x40b9849934baed75},
	{"Syn", "wfp", "WFP", 300, 0x40b973cd5d130ad2, 0x3ff649b85c62c038, 0x4072ececbce0d36f, 0x4045d5e0eb53a28f, 0x3fee78e1c0f62332, 0, 0x40b986b1a04319f9},
	{"Sci", "easy-bf", "EASY-BF", 300, 0x40f258aaa5e6d628, 0x404abaa22ee21b20, 0x40e56293feb10919, 0x40c346f285f16333, 0x3fee72f541df1664, 293, 0x40f258d825566bdb},
	{"Sci", "fairshare", "FairShare", 300, 0x40f164504b5db4f7, 0x404b739178db95b5, 0x40e7159790f184c4, 0x406342fe338bb85e, 0x3fefc69442d806a4, 300, 0x40f1647dcacd4aaa},
	{"Sci", "fcfs", "FCFS", 300, 0x40f2b2a04b4441e7, 0x404b150f38dcf714, 0x40e59ef4bc78c7af, 0x40d1ca80768546dd, 0x3fede78eed89d4ea, 293, 0x40f2b2cdcab3d79a},
	{"Sci", "greedy-bf", "GreedyBF", 300, 0x40f17be91ed49b5a, 0x404b15d16d843833, 0x40e57fbaa70af51a, 0x40c1b903dd263939, 0x3fefb085fc765f3f, 291, 0x40f17c169e44310d},
	{"Sci", "ljf", "LJF", 300, 0x40f1c0d5cd3a896f, 0x4054f6730900c6cc, 0x40ee7fb1e9762749, 0x40ac799b7edbaa59, 0x3fef38973d85ca20, 300, 0x40f1c1034caa1f22},
	{"Sci", "random", "Random", 300, 0x40f209f030e93415, 0x4053708683ed1d8f, 0x40ed01d3b454c5e6, 0x408b80c7665ee21d, 0x3feeafe8bada8b97, 300, 0x40f20a1db058c9c8},
	{"Sci", "sjf", "SJF", 300, 0x40f34346b4005755, 0x404e2b202792937b, 0x40e80d255974d0aa, 0x4081481e629a32c5, 0x3fecbd16e798fbbd, 298, 0x40f34374336fed08},
	{"Sci", "wfp", "WFP", 300, 0x40f18805766bca70, 0x4050dd6a4f3c5700, 0x40e996365becf0cd, 0x40cba75cf072222b, 0x3feff0a559684585, 296, 0x40f18832f5db6023},
	{"G", "easy-bf", "EASY-BF", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "fairshare", "FairShare", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "fcfs", "FCFS", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "greedy-bf", "GreedyBF", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "ljf", "LJF", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "random", "Random", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "sjf", "SJF", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"G", "wfp", "WFP", 300, 0x4097f75629623053, 0x3ff0000000000000, 0x403bef17ac67cb55, 0x0, 0x3fd3f06ac5e8c5ca, 0, 0x40980147901d2ad4},
	{"Ind", "easy-bf", "EASY-BF", 300, 0x40d2032312849b64, 0x40251270b0779307, 0x40b8d68dbc89ca80, 0x409e65570bbbc60f, 0x3feff2f06b0b8f76, 267, 0x40d20b022e834c5f},
	{"Ind", "fairshare", "FairShare", 300, 0x40d204ede6d4b374, 0x40280ec495ec2a14, 0x40bdf59eb3b4a4b8, 0x404e932967bf955e, 0x3feff31d60f8b741, 239, 0x40d20ccd02d3646f},
	{"Ind", "fcfs", "FCFS", 300, 0x40d2032312849b64, 0x40251270b0779307, 0x40b8d68dbc89ca80, 0x409e65570bbbc60f, 0x3feff2f06b0b8f76, 267, 0x40d20b022e834c5f},
	{"Ind", "greedy-bf", "GreedyBF", 300, 0x40d2032312849b64, 0x40251270b0779307, 0x40b8d68dbc89ca80, 0x409e65570bbbc60f, 0x3feff2f06b0b8f76, 267, 0x40d20b022e834c5f},
	{"Ind", "ljf", "LJF", 300, 0x40d2366ec5a1a08c, 0x4032cc75ce6c8e33, 0x40c3c190c4104373, 0x40854d86842f68db, 0x3fef741cd131b6bf, 272, 0x40d23e4de1a05187},
	{"Ind", "random", "Random", 300, 0x40d26572004a8f7d, 0x402d85cb6243913f, 0x40c0af6085a0bc91, 0x40845515c0760ae1, 0x3fef264251ad36b1, 279, 0x40d26d511c494078},
	{"Ind", "sjf", "SJF", 300, 0x40d2748ac7c8b812, 0x402a4b242ea6f237, 0x40bf9e1b4226029f, 0x405f2928c1942fae, 0x3fef2553a43314b8, 249, 0x40d27c69e3c7690d},
	{"Ind", "wfp", "WFP", 300, 0x40d2032312849b64, 0x40251270b0779307, 0x40b8d68dbc89ca80, 0x409e65570bbbc60f, 0x3feff2f06b0b8f76, 267, 0x40d20b022e834c5f},
}

// TestRunSourceMatchesRun pins Run and RunSource — streamed in feedBatch
// chunks with a feed event per chunk, from cloned jobs — to the same
// recorded bits, for every policy and four workload classes.
func TestRunSourceMatchesRun(t *testing.T) {
	classes := map[string]workload.Class{}
	for _, c := range []workload.Class{workload.ClassSynthetic, workload.ClassScientific, workload.ClassGaming, workload.ClassIndustrial} {
		classes[c.String()] = c
	}
	if want := 4 * len(PolicyNames()); len(pinnedResults) != want {
		t.Fatalf("%d pinned results, want %d (4 classes × every registered policy)", len(pinnedResults), want)
	}
	for _, pin := range pinnedResults {
		t.Run(pin.class+"/"+pin.name, func(t *testing.T) {
			tr := workload.StandardGenerator(classes[pin.class]).Generate(300, rand.New(rand.NewSource(5)))
			runs := map[string]func(*Simulator) (*Result, error){
				"Run":       func(s *Simulator) (*Result, error) { return s.Run() },
				"RunSource": func(s *Simulator) (*Result, error) { return s.RunSource(tr.Source()) },
			}
			for _, mode := range []string{"Run", "RunSource"} {
				p, err := PolicyByName(pin.policy)
				if err != nil {
					t.Fatal(err)
				}
				env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
				s := new(Simulator)
				s.Reset(env, tr, p, 1)
				res, err := runs[mode](s)
				if err != nil {
					t.Fatal(err)
				}
				got := []uint64{
					uint64(res.Completed), math.Float64bits(float64(res.Makespan)),
					math.Float64bits(res.MeanSlowdown), math.Float64bits(res.MeanResponse),
					math.Float64bits(res.MeanWait), math.Float64bits(res.UtilizationMean),
					uint64(res.DeadlineMisses), math.Float64bits(float64(res.Horizon)),
				}
				want := []uint64{
					uint64(pin.completed), pin.makespan, pin.meanSlowdown, pin.meanResponse,
					pin.meanWait, pin.utilizationMean, uint64(pin.deadlineMisses), pin.horizon,
				}
				fields := []string{"Completed", "Makespan", "MeanSlowdown", "MeanResponse", "MeanWait", "UtilizationMean", "DeadlineMisses", "Horizon"}
				for i := range fields {
					if got[i] != want[i] {
						t.Errorf("%s: %s bits = %#x, want %#x", mode, fields[i], got[i], want[i])
					}
				}
				if res.Policy != pin.name {
					t.Errorf("%s: Policy = %q, want %q", mode, res.Policy, pin.name)
				}
			}
		})
	}
}

// TestRunSortsBySubmitStably runs a trace handed over in reverse submit
// order, with several jobs sharing each submit instant, and requires the
// exact result and per-job stats of the same trace sorted stably by Submit:
// Run views the trace in stable submit order, so same-instant jobs keep
// their trace order as the FIFO tie-break.
func TestRunSortsBySubmitStably(t *testing.T) {
	var sorted []*workload.Job
	id := 0
	for at := 0; at < 30; at++ {
		for k := 0; k < 4; k++ {
			id++
			sorted = append(sorted, mkJob(id, sim.Time(at*3), 1+id%4, sim.Duration(5+id%7)))
		}
	}
	// Reverse the instants but keep each instant's jobs in their order, so
	// the stable view of the reversed trace equals the sorted trace.
	var reversed []*workload.Job
	for lo := len(sorted) - 4; lo >= 0; lo -= 4 {
		reversed = append(reversed, sorted[lo:lo+4]...)
	}
	for _, name := range PolicyNames() {
		run := func(jobs []*workload.Job) (*Result, []JobStats) {
			p, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			env := cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 4)
			res, stats, err := runWithStats(env, &workload.Trace{Jobs: jobs}, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			return res, stats
		}
		want, wantJobs := run(sorted)
		got, gotJobs := run(reversed)
		if *got != *want {
			t.Errorf("%s: reversed trace result %+v, sorted %+v", name, *got, *want)
		}
		if !slices.Equal(gotJobs, wantJobs) {
			t.Errorf("%s: reversed trace per-job stats differ from sorted", name)
		}
		if reversed[0].ID != sorted[len(sorted)-4].ID {
			t.Fatalf("%s: Run reordered the caller's trace", name)
		}
	}
}

// TestRunSourceBoundedMemory streams 10^5 jobs from a million-scale style
// population through the simulator and checks that per-job state is fully
// reclaimed: after the run, the queue, every task-keyed map and the state
// arena must be empty, and the arena must have grown to far fewer pages
// than the streamed tasks would fill — memory was proportional to in-flight
// jobs, not stream length.
func TestRunSourceBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1e5 jobs")
	}
	const jobs = 100000
	pop := &workload.Population{
		Clients: 10000,
		Mix:     workload.SingleClass(workload.ClassGaming),
		Skew:    workload.Skew{Kind: "zipf"},
		// Aggregate ~20 jobs/s keeps the simulated span short while leaving
		// queueing dynamics intact.
		RateScale: 100.0 / 10000,
		Seed:      17,
	}
	src, err := pop.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	env := cluster.NewHomogeneous(cluster.KindCluster, 2, 32, 16)
	s := new(Simulator)
	s.Reset(env, nil, GreedyBackfill(), 1)
	counted := &taskCounter{JobSource: src, left: jobs}
	res, err := s.RunSource(counted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != jobs {
		t.Fatalf("Completed = %d, want %d", res.Completed, jobs)
	}
	slots := 0
	for _, sl := range s.estFinish {
		slots += len(sl)
	}
	for name, n := range map[string]int{
		"queue":       s.queue.n,
		"pendingDeps": len(s.pendingDeps),
		"dependents":  len(s.dependents),
		"changed":     len(s.changed),
		"estFinish":   slots,
		"arena":       s.states.live(),
	} {
		if n != 0 {
			t.Errorf("%s retains %d entries after streaming run", name, n)
		}
	}
	if pages, all := len(s.states.pages), counted.tasks/statePage; pages > all/20 {
		t.Errorf("arena grew to %d pages; the %d streamed tasks fill %d", pages, counted.tasks, all)
	}
	if res.UtilizationMean <= 0 || res.UtilizationMean > 1 {
		t.Errorf("UtilizationMean = %v out of (0,1]", res.UtilizationMean)
	}
}

// taskCounter emits the first left jobs of its source and counts their
// tasks.
type taskCounter struct {
	workload.JobSource
	left  int
	tasks int
}

func (c *taskCounter) Next() *workload.Job {
	if c.left <= 0 {
		return nil
	}
	c.left--
	j := c.JobSource.Next()
	if j != nil {
		c.tasks += len(j.Tasks)
	}
	return j
}

// errSource emits a fixed list of jobs, for protocol-violation tests.
type listSource struct {
	jobs []*workload.Job
	i    int
}

func (s *listSource) Next() *workload.Job {
	if s.i >= len(s.jobs) {
		return nil
	}
	j := s.jobs[s.i]
	s.i++
	return j
}

func (s *listSource) Name() string { return "list" }
func (s *listSource) Close()       {}

func TestRunSourceRejectsOutOfOrder(t *testing.T) {
	src := &listSource{jobs: []*workload.Job{
		mkJob(1, 100, 1, 10),
		mkJob(2, 50, 1, 10),
	}}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	s := new(Simulator)
	s.Reset(env, nil, FCFS(), 1)
	_, err := s.RunSource(src)
	if err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

func TestRunSourceRejectsInvalidDAG(t *testing.T) {
	bad := mkJob(1, 0, 1, 10)
	bad.Tasks[0].Deps = []int{999}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	s := new(Simulator)
	s.Reset(env, nil, FCFS(), 1)
	_, err := s.RunSource(&listSource{jobs: []*workload.Job{bad}})
	if err == nil {
		t.Fatal("invalid DAG accepted")
	}
}

// TestRunSourceEmpty checks the zero-job stream produces a sane empty result.
func TestRunSourceEmpty(t *testing.T) {
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	s := new(Simulator)
	s.Reset(env, nil, FCFS(), 1)
	res, err := s.RunSource(&listSource{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Makespan != 0 {
		t.Errorf("empty stream: %+v", res)
	}
}

// TestRunSourceChunking forces multiple feed chunks (> feedBatch jobs with
// same-instant bursts straddling the boundary) and checks completion.
func TestRunSourceChunking(t *testing.T) {
	var jobs []*workload.Job
	id := 0
	// 600 jobs in bursts of 5 sharing each submit instant.
	for burst := 0; burst < 120; burst++ {
		for k := 0; k < 5; k++ {
			id++
			jobs = append(jobs, mkJob(id, sim.Time(burst), 1, 2))
		}
	}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	s := new(Simulator)
	s.Reset(env, nil, FCFS(), 1)
	res, err := s.RunSource(&listSource{jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Errorf("Completed = %d, want %d", res.Completed, len(jobs))
	}
}
