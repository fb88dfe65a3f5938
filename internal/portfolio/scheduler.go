package portfolio

import (
	"fmt"
	"math"
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
	// Simulators lends the simulators the window simulations run on, so a
	// run reuses the kernel and buffers of an earlier one. When nil, every
	// window simulation runs on a new simulator.
	Simulators *sched.FreeList
}

// Run executes the full trace.
func (s *Scheduler) Run(tr *workload.Trace) (*Result, error) {
	runs, err := s.windowRuns(tr)
	if err != nil {
		return nil, err
	}
	return s.run(runs)
}

// StaticBaselines runs every individual policy over the same windowed
// execution (same window boundaries, same seeds) and returns the mean
// slowdown per policy. This isolates the value of *selection* from the value
// of any single policy.
func (s *Scheduler) StaticBaselines(tr *workload.Trace) (map[string]float64, error) {
	runs, err := s.windowRuns(tr)
	if err != nil {
		return nil, err
	}
	return s.staticBaselines(runs)
}

func (s *Scheduler) run(runs *windowRuns) (*Result, error) {
	if len(s.Policies) == 0 {
		return nil, fmt.Errorf("portfolio: empty policy set")
	}
	res := &Result{Selector: s.Selector.Name()}
	var allSlowdowns, allResponses []float64
	picked := make(map[string]bool)

	for w := range runs.windows {
		chosen, simRuns := s.Selector.Select(s.Policies, runs.score(w), s.Seed+int64(w))
		policy := s.Policies[chosen]
		real := runs.get(chosen, w, false)
		if real.err != nil {
			return nil, fmt.Errorf("portfolio: window %d with %s: %w", w, policy.Name(), real.err)
		}
		allSlowdowns = append(allSlowdowns, real.slowdowns...)
		allResponses = append(allResponses, real.responses...)
		s.Selector.Observe(policy, real.res.MeanSlowdown)

		res.Choices = append(res.Choices, WindowChoice{
			Window: w, Policy: policy.Name(), SimRuns: simRuns, Realized: real.res.MeanSlowdown,
		})
		res.TotalSimRuns += simRuns
		picked[policy.Name()] = true
	}
	res.MeanSlowdown = stats.Mean(allSlowdowns)
	res.MeanResponse = stats.Mean(allResponses)
	res.DistinctPicked = len(picked)
	return res, nil
}

// staticBaselines returns each policy's mean slowdown over its runs on the
// windows; window runs already made by a portfolio run over the same
// windows are reused.
func (s *Scheduler) staticBaselines(runs *windowRuns) (map[string]float64, error) {
	out := make(map[string]float64, len(s.Policies))
	for i, p := range s.Policies {
		var all []float64
		for w := range runs.windows {
			r := runs.get(i, w, false)
			if r.err != nil {
				return nil, fmt.Errorf("portfolio: baseline %s window %d: %w", p.Name(), w, r.err)
			}
			all = append(all, r.slowdowns...)
		}
		out[p.Name()] = stats.Mean(all)
	}
	return out, nil
}

// windowRuns is a trace cut into the scheduler's windows, with every window
// simulation memoized: one run per (policy, window, runtimes or estimates),
// on a fresh environment with seed Seed+window and a simulator borrowed
// from sims. A policy's run on a window is both its static baseline there
// and, when the policy is chosen, the portfolio's realized run; on a window
// whose runtime estimates are all exact, the estimate run a selector scores
// is that same simulation too.
// Runs may be requested concurrently.
type windowRuns struct {
	s       *Scheduler
	windows []*workload.Trace
	exact   []bool // every task's RuntimeEstimate equals its Runtime
	sims    *sched.FreeList

	mu   sync.Mutex
	est  []*workload.Trace // estimate views, built on first use
	runs map[runKey]*windowRun
}

type runKey struct {
	policy, window int
	est            bool
}

// windowRun is one window simulation: its result and, for runs on true
// runtimes, the per-job slowdowns and responses in completion order.
type windowRun struct {
	once      sync.Once
	res       *sched.Result
	slowdowns []float64
	responses []float64
	err       error
}

// windowRuns cuts tr, in stable submit order, into windows of WindowSize
// jobs.
func (s *Scheduler) windowRuns(tr *workload.Trace) (*windowRuns, error) {
	if s.WindowSize <= 0 {
		return nil, fmt.Errorf("portfolio: window size %d", s.WindowSize)
	}
	sorted := &workload.Trace{Name: tr.Name, Jobs: append([]*workload.Job(nil), tr.Jobs...)}
	sorted.SortBySubmit()
	runs := &windowRuns{s: s, sims: s.Simulators, runs: make(map[runKey]*windowRun)}
	for lo := 0; lo < len(sorted.Jobs); lo += s.WindowSize {
		hi := min(lo+s.WindowSize, len(sorted.Jobs))
		window := &workload.Trace{Name: fmt.Sprintf("%s/w%d", tr.Name, len(runs.windows)), Jobs: sorted.Jobs[lo:hi]}
		runs.windows = append(runs.windows, window)
		runs.exact = append(runs.exact, exactEstimates(window))
	}
	runs.est = make([]*workload.Trace, len(runs.windows))
	return runs, nil
}

// exactEstimates reports whether every task's runtime estimate is exact, so
// the estimate view of tr simulates exactly like tr.
func exactEstimates(tr *workload.Trace) bool {
	for _, j := range tr.Jobs {
		for k := range j.Tasks {
			if j.Tasks[k].RuntimeEstimate != j.Tasks[k].Runtime {
				return false
			}
		}
	}
	return true
}

// get returns the run of policy i on window w, from runtime estimates when
// est is set, simulating it on first request.
func (r *windowRuns) get(i, w int, est bool) *windowRun {
	key := runKey{policy: i, window: w, est: est && !r.exact[w]}
	r.mu.Lock()
	run := r.runs[key]
	if run == nil {
		run = &windowRun{}
		r.runs[key] = run
	}
	window := r.windows[w]
	if key.est {
		if r.est[w] == nil {
			r.est[w] = estimateTrace(window)
		}
		window = r.est[w]
	}
	r.mu.Unlock()
	run.once.Do(func() {
		sim := r.sims.Get()
		defer r.sims.Put(sim)
		sim.Reset(r.s.EnvFactory(), window, r.s.Policies[i], r.s.Seed+int64(w))
		if !key.est {
			sim.OnJob = func(js sched.JobStats) {
				run.slowdowns = append(run.slowdowns, js.Slowdown)
				run.responses = append(run.responses, float64(js.Response))
			}
		}
		run.res, run.err = sim.Run()
	})
	return run
}

// score is the selectors' view of window w: policy i's mean bounded slowdown
// on the window's runtime estimates, +Inf when that run fails or completes
// nothing.
func (r *windowRuns) score(w int) func(i int) float64 {
	return func(i int) float64 {
		run := r.get(i, w, true)
		if run.err != nil || run.res.Completed == 0 {
			return math.Inf(1)
		}
		return run.res.MeanSlowdown
	}
}
