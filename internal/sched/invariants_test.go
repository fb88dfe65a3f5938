package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/cluster"
	"atlarge/internal/workload"
)

// TestSimulatorInvariantsProperty checks, over random workloads and
// policies, the conservation and causality invariants of the scheduling
// simulator:
//
//  1. every job completes exactly once;
//  2. response time >= the job's critical path (no time travel);
//  3. wait >= 0 and start >= submit;
//  4. all machines are fully released at the end.
func TestSimulatorInvariantsProperty(t *testing.T) {
	policies := DefaultPortfolio()
	classes := []workload.Class{
		workload.ClassSynthetic, workload.ClassScientific, workload.ClassBigData,
	}
	f := func(seed int64, policyIdx, classIdx uint8) bool {
		policy := policies[int(policyIdx)%len(policies)]
		class := classes[int(classIdx)%len(classes)]
		r := rand.New(rand.NewSource(seed))
		tr := workload.StandardGenerator(class).Generate(15, r)
		env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
		res, jobs, err := runWithStats(env, tr, policy, seed)
		if err != nil {
			return false
		}
		if res.Completed != len(tr.Jobs) || len(jobs) != len(tr.Jobs) {
			return false
		}
		seen := map[int]bool{}
		byID := map[int]*workload.Job{}
		for _, j := range tr.Jobs {
			byID[j.ID] = j
		}
		for _, js := range jobs {
			if seen[js.JobID] {
				return false // double completion
			}
			seen[js.JobID] = true
			if js.Wait < 0 || js.Start < js.Submit || js.Finish < js.Start {
				return false
			}
			cp, _ := byID[js.JobID].CheckDAG(new(workload.DAGScratch))
			if float64(js.Response) < float64(cp)-1e-9 {
				return false // finished faster than physically possible
			}
		}
		return env.FreeCores() == env.TotalCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSlowdownAtLeastOneProperty checks the bounded-slowdown floor.
func TestSlowdownAtLeastOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := workload.StandardGenerator(workload.ClassGaming).Generate(10, r)
		env := cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 4)
		_, jobs, err := runWithStats(env, tr, GreedyBackfill(), seed)
		if err != nil {
			return false
		}
		for _, js := range jobs {
			if js.Slowdown < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMoreCoresNeverHurtMakespan is a sanity monotonicity check: doubling
// the machine count must not increase makespan under greedy backfill (a
// work-conserving policy on independent tasks).
func TestMoreCoresNeverHurtMakespan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := workload.StandardGenerator(workload.ClassSynthetic)
	tr := g.Generate(40, r)
	small := cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 8)
	big := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	s := new(Simulator)
	s.Reset(small, tr, GreedyBackfill(), 1)
	resSmall, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	s.Reset(big, tr, GreedyBackfill(), 1)
	resBig, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Makespan > resSmall.Makespan+1e-9 {
		t.Errorf("doubling cores increased makespan: %v -> %v", resSmall.Makespan, resBig.Makespan)
	}
}
