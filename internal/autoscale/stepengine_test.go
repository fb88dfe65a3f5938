package autoscale

// This file preserves the historical fixed-timestep engines, as the
// test-only reference implementation for the event-driven engines in
// engine.go. They keep their own task and job state types, and they record
// the supply/demand series through Series.Add as the engines do. The parity tests (parity_test.go) prove that the kernel-based
// engines reproduce these loops' RunStats within tolerance; the step loops
// are compiled only into the test binary and are not part of the library.

import (
	"fmt"
	"math/rand"
	"sort"

	"atlarge/internal/workload"
)

// stepTask is the step loop's state of one task.
type stepTask struct {
	task      *workload.Task
	job       *workload.Job
	remaining float64
	running   bool
	depsLeft  int
}

// stepJob is the step loop's state of one fluid job.
type stepJob struct {
	job      *workload.Job
	workLeft float64 // CPU-seconds
	width    int     // max useful parallelism
	started  bool
	start    float64
}

// bootingVM tracks capacity that was requested but is not usable yet.
type bootingVM struct {
	readyAt float64
	cores   int
}

// bootingCores sums cores still provisioning.
func bootingCores(bs []bootingVM) int {
	n := 0
	for _, b := range bs {
		n += b.cores
	}
	return n
}

// runVitroStep is the historical fine-grained task-level engine: a fixed
// Step-second loop that admits arrivals, lands boots, evaluates the
// autoscaler, dispatches, records, and decrements remaining runtimes.
func runVitroStep(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	st := &RunStats{Autoscaler: as.Name(), Engine: cfg.Kind.String()}
	failRand := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))

	jobs := append([]*workload.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for _, j := range jobs {
		if _, err := j.CheckDAG(new(workload.DAGScratch)); err != nil {
			return nil, fmt.Errorf("autoscale: %w", err)
		}
	}

	var (
		now        float64
		nextEval   float64
		arrived    int
		tasks      = map[int]*stepTask{} // task ID -> state
		dependents = map[int][]int{}     // task ID -> dependent task IDs
		ready      []*stepTask
		running    []*stepTask
		cores      int // booted cores
		booting    []bootingVM
		history    []int
		jobLeft    = map[int]int{}
		jobStart   = map[int]float64{}
		jobSubmit  = map[int]float64{}
	)

	done := func() bool {
		return arrived == len(jobs) && len(ready) == 0 && len(running) == 0
	}

	for !done() {
		// Admit arrivals.
		for arrived < len(jobs) && float64(jobs[arrived].Submit) <= now {
			j := jobs[arrived]
			arrived++
			jobLeft[j.ID] = len(j.Tasks)
			jobSubmit[j.ID] = float64(j.Submit)
			for i := range j.Tasks {
				t := &j.Tasks[i]
				vt := &stepTask{task: t, job: j, remaining: float64(t.Runtime), depsLeft: len(t.Deps)}
				tasks[t.ID] = vt
				for _, d := range t.Deps {
					dependents[d] = append(dependents[d], t.ID)
				}
				if vt.depsLeft == 0 {
					ready = append(ready, vt)
				}
			}
		}

		// Boot completions.
		var stillBooting []bootingVM
		for _, b := range booting {
			if b.readyAt <= now {
				cores += b.cores
			} else {
				stillBooting = append(stillBooting, b)
			}
		}
		booting = stillBooting

		// Demand: running + ready cores.
		usedCores := 0
		for _, rt := range running {
			usedCores += rt.task.CPUs
		}
		demand := usedCores
		for _, vt := range ready {
			demand += vt.task.CPUs
		}

		// Autoscaler evaluation.
		if now >= nextEval {
			nextEval = now + cfg.EvalInterval
			history = append(history, demand)
			obs := Observation{
				Now:          now,
				Demand:       demand,
				Supply:       cores + bootingCores(booting),
				History:      history,
				BootDelay:    cfg.BootDelay,
				EvalInterval: cfg.EvalInterval,
			}
			if as.WorkflowAware() {
				obs.SoonEligible = soonEligibleStep(running, dependents, tasks, cfg.BootDelay)
			}
			target := as.Target(obs)
			if target > cfg.MaxCores {
				target = cfg.MaxCores
			}
			current := cores + bootingCores(booting)
			if target > current {
				need := target - current
				vms := (need + cfg.CorePerVM - 1) / cfg.CorePerVM
				for v := 0; v < vms; v++ {
					// Failure injection: the request may be silently lost.
					if cfg.BootFailureRate > 0 && failRand.Float64() < cfg.BootFailureRate {
						continue
					}
					booting = append(booting, bootingVM{readyAt: now + cfg.BootDelay, cores: cfg.CorePerVM})
				}
			} else if target < current {
				// Deprovision idle booted cores only (running tasks keep theirs).
				idle := cores - usedCores
				drop := current - target
				if drop > idle {
					drop = idle
				}
				cores -= drop
			}
		}

		// Dispatch ready tasks FCFS onto free cores.
		free := cores - usedCores
		var stillReady []*stepTask
		for _, vt := range ready {
			if vt.task.CPUs <= free {
				free -= vt.task.CPUs
				vt.running = true
				running = append(running, vt)
				if _, ok := jobStart[vt.job.ID]; !ok {
					jobStart[vt.job.ID] = now
				}
			} else {
				stillReady = append(stillReady, vt)
			}
		}
		ready = stillReady

		// Record series.
		st.Series.Add(cores+bootingCores(booting), demand)
		st.CoreSeconds += float64(cores) * cfg.Step

		// Advance running tasks.
		now += cfg.Step
		var stillRunning []*stepTask
		for _, rt := range running {
			rt.remaining -= cfg.Step
			if rt.remaining > 1e-9 {
				stillRunning = append(stillRunning, rt)
				continue
			}
			// Completed.
			for _, depID := range dependents[rt.task.ID] {
				dt := tasks[depID]
				dt.depsLeft--
				if dt.depsLeft == 0 {
					ready = append(ready, dt)
				}
			}
			jobLeft[rt.job.ID]--
			if jobLeft[rt.job.ID] == 0 {
				finishJob(st, rt.job, jobSubmit[rt.job.ID], jobStart[rt.job.ID], now)
			}
		}
		running = stillRunning
	}
	st.Horizon = now
	return st, nil
}

// soonEligibleStep counts cores of tasks whose last dependency finishes within
// horizon, estimated from step-quantized remaining runtimes.
func soonEligibleStep(running []*stepTask, dependents map[int][]int, tasks map[int]*stepTask, horizon float64) int {
	cores := 0
	for _, rt := range running {
		if rt.remaining > horizon {
			continue
		}
		for _, depID := range dependents[rt.task.ID] {
			dt := tasks[depID]
			if dt.depsLeft == 1 { // this finishing task is the last blocker
				cores += dt.task.CPUs
			}
		}
	}
	return cores
}

// runSilicoStep is the historical coarse engine: each job is a fluid amount
// of CPU-work with a parallelism cap, drained in fixed Step-second slices.
func runSilicoStep(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	st := &RunStats{Autoscaler: as.Name(), Engine: cfg.Kind.String()}

	jobs := append([]*workload.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })

	var (
		now      float64
		nextEval float64
		arrived  int
		active   []*stepJob
		cores    int
		booting  []bootingVM
		history  []int
	)

	for arrived < len(jobs) || len(active) > 0 {
		for arrived < len(jobs) && float64(jobs[arrived].Submit) <= now {
			j := jobs[arrived]
			arrived++
			active = append(active, &stepJob{job: j, workLeft: j.TotalWork(), width: silicoWidth(j)})
		}

		var stillBooting []bootingVM
		for _, b := range booting {
			if b.readyAt <= now {
				cores += b.cores
			} else {
				stillBooting = append(stillBooting, b)
			}
		}
		booting = stillBooting

		demand := 0
		for _, sj := range active {
			demand += sj.width
		}

		if now >= nextEval {
			nextEval = now + cfg.EvalInterval
			history = append(history, demand)
			obs := Observation{
				Now:          now,
				Demand:       demand,
				Supply:       cores + bootingCores(booting),
				History:      history,
				BootDelay:    cfg.BootDelay,
				EvalInterval: cfg.EvalInterval,
			}
			if as.WorkflowAware() {
				// The coarse engine approximates the eligible wave as 25% of
				// outstanding width — an intentionally different model from
				// the in-vitro engine.
				obs.SoonEligible = demand / 4
			}
			target := as.Target(obs)
			if target > cfg.MaxCores {
				target = cfg.MaxCores
			}
			current := cores + bootingCores(booting)
			if target > current {
				need := target - current
				vms := (need + cfg.CorePerVM - 1) / cfg.CorePerVM
				for v := 0; v < vms; v++ {
					booting = append(booting, bootingVM{readyAt: now + cfg.BootDelay, cores: cfg.CorePerVM})
				}
			} else if target < current && cores > 0 {
				drop := current - target
				if drop > cores {
					drop = cores
				}
				cores -= drop
			}
		}

		st.Series.Add(cores+bootingCores(booting), demand)
		st.CoreSeconds += float64(cores) * cfg.Step

		// Share cores proportionally by width, capped per job.
		available := float64(cores)
		var stillActive []*stepJob
		for _, sj := range active {
			if !sj.started {
				sj.started = true
				sj.start = now
			}
			share := 0.0
			if demand > 0 {
				share = float64(cores) * float64(sj.width) / float64(demand)
			}
			if share > float64(sj.width) {
				share = float64(sj.width)
			}
			if share > available {
				share = available
			}
			available -= share
			sj.workLeft -= share * cfg.Step
			if sj.workLeft > 1e-9 {
				stillActive = append(stillActive, sj)
				continue
			}
			finishJob(st, sj.job, float64(sj.job.Submit), sj.start, now+cfg.Step)
		}
		active = stillActive
		now += cfg.Step
	}
	st.Horizon = now
	return st, nil
}
