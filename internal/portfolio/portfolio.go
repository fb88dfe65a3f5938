// Package portfolio implements portfolio scheduling for datacenters
// (paper §6.6, Table 9): a scheduler that carries a portfolio of scheduling
// policies, periodically simulates the alternatives, and activates the policy
// that currently performs best.
//
// Table 9 runs exhaustive selection for every row: each window, every
// policy of the portfolio is simulated and the best one runs (Deng et al.
// JSSPP'13).
//
// Selection simulates the upcoming window using runtime *estimates*, not true
// runtimes — the scheduler cannot know the future. Workloads with poor
// estimates (the big-data class) therefore degrade selection quality, which
// reproduces the POSUM finding (Table 9, last row).
package portfolio

import (
	"sync"

	"atlarge/internal/workload"
)

// estimateTrace clones the window with task runtimes replaced by their
// estimates: the information actually available at selection time.
func estimateTrace(tr *workload.Trace) *workload.Trace {
	cp := &workload.Trace{Name: tr.Name + "+est", Jobs: make([]*workload.Job, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		nj := *j
		nj.Tasks = make([]workload.Task, len(j.Tasks))
		copy(nj.Tasks, j.Tasks)
		for k := range nj.Tasks {
			nj.Tasks[k].Runtime = nj.Tasks[k].RuntimeEstimate
		}
		cp.Jobs[i] = &nj
	}
	return cp
}

// selectExhaustive scores each of the portfolio's n policies with score(i),
// policy i's mean bounded slowdown simulated on the window from runtime
// estimates, and returns the index of the lowest and the online selection
// cost in full window simulations: one per policy scored, however many of
// them the scheduler could share. The candidate simulations are
// independent, so they are scored concurrently; the argmin keeps the
// sequential tie-break (lowest portfolio index wins).
func selectExhaustive(n int, score func(i int) float64) (chosen, simRuns int) {
	scores := make([]float64, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scores[i] = score(i)
		}(i)
	}
	wg.Wait()
	for i := range n {
		if scores[i] < scores[chosen] {
			chosen = i
		}
	}
	return chosen, n
}
