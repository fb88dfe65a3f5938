package portfolio

import (
	"fmt"
	"sync"

	"atlarge/internal/cluster"
	"atlarge/internal/sched"
	"atlarge/internal/stats"
	"atlarge/internal/workload"
)

// WindowChoice records one selection round.
type WindowChoice struct {
	Window   int
	Policy   string
	SimRuns  int     // selection cost in full window simulations
	Realized float64 // realized mean bounded slowdown on the window
}

// Result aggregates a portfolio-scheduling run.
type Result struct {
	Selector       string
	Choices        []WindowChoice
	MeanSlowdown   float64 // over all jobs
	MeanResponse   float64
	TotalSimRuns   int
	DistinctPicked int
}

// Scheduler is a periodic portfolio scheduler: it partitions the incoming
// trace into windows of WindowSize jobs and, per window, asks the Selector
// for a policy, executes the window under it, and feeds back the realized
// quality.
//
// Executing windows on a fresh environment approximates the carried-over
// queue state; the approximation is acceptable because selection happens at
// low-utilization boundaries in the original studies.
type Scheduler struct {
	Policies   []sched.Policy
	Selector   Selector
	WindowSize int
	EnvFactory func() *cluster.Environment
	Seed       int64
}

// Run executes the full trace.
func (s *Scheduler) Run(tr *workload.Trace) (*Result, error) {
	if len(s.Policies) == 0 {
		return nil, fmt.Errorf("portfolio: empty policy set")
	}
	if s.WindowSize <= 0 {
		return nil, fmt.Errorf("portfolio: window size %d", s.WindowSize)
	}
	sorted := &workload.Trace{Name: tr.Name, Jobs: append([]*workload.Job(nil), tr.Jobs...)}
	sorted.SortBySubmit()

	res := &Result{Selector: s.Selector.Name()}
	var allSlowdowns, allResponses []float64
	picked := make(map[string]bool)

	for w := 0; w*s.WindowSize < len(sorted.Jobs); w++ {
		lo := w * s.WindowSize
		hi := lo + s.WindowSize
		if hi > len(sorted.Jobs) {
			hi = len(sorted.Jobs)
		}
		window := &workload.Trace{Name: fmt.Sprintf("%s/w%d", tr.Name, w), Jobs: sorted.Jobs[lo:hi]}

		policy, simRuns := s.Selector.Select(window, s.EnvFactory, s.Policies, s.Seed+int64(w))
		simulator := sched.NewSimulator(s.EnvFactory(), window, policy, s.Seed+int64(w))
		simulator.OnJob = func(js sched.JobStats) {
			allSlowdowns = append(allSlowdowns, js.Slowdown)
			allResponses = append(allResponses, float64(js.Response))
		}
		real, err := simulator.Run()
		if err != nil {
			return nil, fmt.Errorf("portfolio: window %d with %s: %w", w, policy.Name(), err)
		}
		s.Selector.Observe(policy, real.MeanSlowdown)

		res.Choices = append(res.Choices, WindowChoice{
			Window: w, Policy: policy.Name(), SimRuns: simRuns, Realized: real.MeanSlowdown,
		})
		res.TotalSimRuns += simRuns
		picked[policy.Name()] = true
	}
	res.MeanSlowdown = stats.Mean(allSlowdowns)
	res.MeanResponse = stats.Mean(allResponses)
	res.DistinctPicked = len(picked)
	return res, nil
}

// StaticBaselines runs every individual policy over the same windowed
// execution (same window boundaries, same seeds) and returns the mean
// slowdown per policy. This isolates the value of *selection* from the value
// of any single policy. The per-policy runs touch disjoint simulator state,
// so each policy is simulated on its own goroutine.
func (s *Scheduler) StaticBaselines(tr *workload.Trace) (map[string]float64, error) {
	sorted := &workload.Trace{Name: tr.Name, Jobs: append([]*workload.Job(nil), tr.Jobs...)}
	sorted.SortBySubmit()
	means := make([]float64, len(s.Policies))
	errs := make([]error, len(s.Policies))
	var wg sync.WaitGroup
	for i, p := range s.Policies {
		wg.Add(1)
		go func(i int, p sched.Policy) {
			defer wg.Done()
			var all []float64
			for w := 0; w*s.WindowSize < len(sorted.Jobs); w++ {
				lo := w * s.WindowSize
				hi := lo + s.WindowSize
				if hi > len(sorted.Jobs) {
					hi = len(sorted.Jobs)
				}
				window := &workload.Trace{Jobs: sorted.Jobs[lo:hi]}
				simulator := sched.NewSimulator(s.EnvFactory(), window, p, s.Seed+int64(w))
				simulator.OnJob = func(js sched.JobStats) { all = append(all, js.Slowdown) }
				if _, err := simulator.Run(); err != nil {
					errs[i] = fmt.Errorf("portfolio: baseline %s window %d: %w", p.Name(), w, err)
					return
				}
			}
			means[i] = stats.Mean(all)
		}(i, p)
	}
	wg.Wait()
	out := make(map[string]float64, len(s.Policies))
	for i, p := range s.Policies {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[p.Name()] = means[i]
	}
	return out, nil
}
