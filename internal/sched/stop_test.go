package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// stopCase draws a small random environment and trace from seed: 1–8
// machines of mixed core counts and speeds over 1–3 sites, and 20–60 jobs of
// mixed widths — from one core to the widest machine, with the odd task
// wider than any machine — a third of them DAG workflows. Submissions come
// in bursts that share an instant, so queues build up and scans stop early.
// env builds a fresh copy of the environment per call.
func stopCase(seed int64) (env func() *cluster.Environment, tr *workload.Trace) {
	r := rand.New(rand.NewSource(seed))
	coreChoices := []int{1, 2, 4, 6, 8, 16, 24}
	speedChoices := []float64{0.5, 1, 1, 1.5, 2}
	nMach, nSites := 1+r.Intn(8), 1+r.Intn(3)
	cores := make([]int, nMach)
	speeds := make([]float64, nMach)
	sites := make([]int, nMach)
	widest := 0
	for i := range cores {
		cores[i] = coreChoices[r.Intn(len(coreChoices))]
		speeds[i] = speedChoices[r.Intn(len(speedChoices))]
		sites[i] = r.Intn(nSites)
		widest = max(widest, cores[i])
	}
	latency := sim.Duration(r.Intn(3)) * 0.05
	env = func() *cluster.Environment {
		e := &cluster.Environment{Kind: cluster.KindMultiCluster, InterLatency: latency}
		for s := 0; s < nSites; s++ {
			e.Clusters = append(e.Clusters, &cluster.Cluster{Name: fmt.Sprintf("site-%d", s)})
		}
		for i := range cores {
			cl := e.Clusters[sites[i]]
			cl.Machines = append(cl.Machines, &cluster.Machine{ID: i + 1, Cores: cores[i], Speed: speeds[i]})
		}
		return e
	}

	tr = &workload.Trace{}
	var submit sim.Time
	taskID, nJobs := 0, 20+r.Intn(41)
	for id := 1; id <= nJobs; id++ {
		if r.Intn(3) > 0 { // a third of the jobs share the previous instant
			submit += sim.Time(r.Intn(40))
		}
		job := &workload.Job{ID: id, Submit: submit}
		if r.Intn(4) == 0 {
			job.Deadline = sim.Duration(50 + r.Intn(400))
		}
		dag := r.Intn(3) == 0
		n := 1 + r.Intn(8)
		for k := 0; k < n; k++ {
			taskID++
			var cpus int
			switch x := r.Intn(100); {
			case x < 40:
				cpus = 1
			case x < 98:
				cpus = 1 + r.Intn(widest)
			default:
				cpus = widest + 1 // never fits: blocks its job forever
			}
			runtime := sim.Duration(1 + r.Intn(120))
			est := runtime * sim.Duration([]float64{0.5, 1, 1, 2, 3}[r.Intn(5)])
			t := workload.Task{ID: taskID, JobID: id, CPUs: cpus, Runtime: runtime, RuntimeEstimate: est}
			if dag && k > 0 {
				for d := 0; d < 1+r.Intn(2); d++ {
					dep := taskID - 1 - r.Intn(k)
					if len(t.Deps) == 0 || t.Deps[0] != dep {
						t.Deps = append(t.Deps, dep)
					}
				}
			}
			job.Tasks = append(job.Tasks, t)
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	return env, tr
}

// pinnedStop holds, per policy, an FNV-64a fold of the bits of every
// per-job stat (completion order) and every Result field over the 60
// stopCase seeds. The values were recorded when the dispatch scan visited
// every queued task, so they pin that stepping over whole queue blocks
// places exactly the same tasks — including EASY's reservation probe of
// the first task that does not fit, which sorts the estimated finishes in
// place.
var pinnedStop = map[string]uint64{
	"FCFS":      0xb1f02c71266e16f9,
	"GreedyBF":  0x521c56195547f6fb,
	"EASY-BF":   0x1a91542cdc7723fb,
	"SJF":       0x90b46acd0fc23747,
	"LJF":       0xa2750ad334e09fed,
	"WFP":       0xcc618f87a2d20d6b,
	"FairShare": 0xfbc284ef92e4e4a7,
	"Random":    0xfc134683a9443511,
}

// TestDispatchStopFingerprints pins every portfolio policy plus Random on
// 60 small random environments to recorded bits.
func TestDispatchStopFingerprints(t *testing.T) {
	policies := append(DefaultPortfolio(), RandomOrder())
	words := make(map[string][]uint64, len(policies))
	for seed := int64(0); seed < 60; seed++ {
		env, tr := stopCase(seed)
		for _, p := range policies {
			res, jobs, err := runWithStats(env(), tr, p, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name(), seed, err)
			}
			w := words[p.Name()]
			for _, js := range jobs {
				w = append(w, jobStatWords(js)...)
			}
			words[p.Name()] = append(w, resultWords(res)...)
		}
	}
	var f fold64
	for _, p := range policies {
		if got, want := f.sum(words[p.Name()]...), pinnedStop[p.Name()]; got != want {
			t.Errorf("%s: got %#x, want %#x", p.Name(), got, want)
		}
	}
}

// scaledTasks returns jobs whose tasks are split into k equal parts each:
// bags of k·n one-core tasks, and chains of k·n tasks, alternating.
func scaledTasks(jobs, n, k int) *workload.Trace {
	tr := &workload.Trace{}
	taskID := 0
	for id := 1; id <= jobs; id++ {
		job := &workload.Job{ID: id, Submit: sim.Time(id / 4 * 5)}
		for i := 0; i < n*k; i++ {
			taskID++
			rt := sim.Duration(40) / sim.Duration(k)
			t := workload.Task{ID: taskID, JobID: id, CPUs: 1 + i%3, Runtime: rt, RuntimeEstimate: rt}
			if id%2 == 0 && i > 0 {
				t.Deps = []int{taskID - 1}
			}
			job.Tasks = append(job.Tasks, t)
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	return tr
}

// TestRunAllocsDoNotScaleWithTasks checks that a run allocates per job and
// per run, not per task: the same jobs with four times the tasks must not
// take more than 1.5× the allocations.
func TestRunAllocsDoNotScaleWithTasks(t *testing.T) {
	env := func() *cluster.Environment { return cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8) }
	for _, p := range []Policy{FCFS(), EASYBackfill(), FairShare(), RandomOrder()} {
		allocs := func(k int) float64 {
			tr := scaledTasks(200, 4, k)
			return testing.AllocsPerRun(5, func() {
				s := new(Simulator)
				s.Reset(env(), tr, p, 1)
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, four := allocs(1), allocs(4)
		if four > 1.5*one {
			t.Errorf("%s: %.0f allocs with 4× the tasks, %.0f with 1× (want ≤ 1.5×)", p.Name(), four, one)
		}
	}
}

// TestRunAllocsDoNotScaleWithJobs checks that a warmed simulator's run
// allocates per run, not per job: arrivals share one handler and job states
// come from the reused job arena, so once a run of 800 jobs has grown the
// simulator, runs of 200 and of 800 jobs allocate the same. Every job state
// must be back in the arena after a run.
func TestRunAllocsDoNotScaleWithJobs(t *testing.T) {
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	small, large := scaledTasks(200, 4, 1), scaledTasks(800, 4, 1)
	for _, p := range []Policy{FCFS(), EASYBackfill(), FairShare(), RandomOrder()} {
		s := new(Simulator)
		allocs := func(tr *workload.Trace) float64 {
			return testing.AllocsPerRun(5, func() {
				s.Reset(env, tr, p, 1)
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		allocs(large) // warm up
		if a200, a800 := allocs(small), allocs(large); a800 != a200 {
			t.Errorf("%s: %.0f allocs at 800 jobs, %.0f at 200 (want equal)", p.Name(), a800, a200)
		}
		if n := s.jobs.live(); n != 0 {
			t.Errorf("%s: %d job states live after the run", p.Name(), n)
		}
	}
}
