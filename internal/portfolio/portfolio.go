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

import "atlarge/internal/workload"

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
// estimates, in portfolio order on the caller's goroutine, and returns the
// index of the lowest (the lowest index wins a tie) and the online
// selection cost in full window simulations: one per policy scored,
// however many of them the scheduler could share.
func selectExhaustive(n int, score func(i int) float64) (chosen, simRuns int) {
	var best float64
	for i := range n {
		if v := score(i); i == 0 || v < best {
			chosen, best = i, v
		}
	}
	return chosen, n
}
