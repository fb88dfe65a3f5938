// Package portfolio implements portfolio scheduling for datacenters
// (paper §6.6, Table 9): a scheduler that carries a portfolio of scheduling
// policies, periodically simulates the alternatives, and activates the policy
// that currently performs best.
//
// Three selectors are provided, mirroring the evolution reported in the
// paper's Table 9:
//   - Exhaustive: simulate every policy each selection round (Deng et al.
//     JSSPP'13). Accurate but the selection cost grows with the portfolio.
//   - ActiveSet: simulate only the recent top-K policies, refreshing the
//     active set periodically (Deng et al. SC'13) — the key trade-off between
//     decision quality and online selection cost.
//   - QLearning: learn policy values from realized rewards without
//     simulation (Ananke, ICAC'17).
//
// Selection simulates the upcoming window using runtime *estimates*, not true
// runtimes — the scheduler cannot know the future. Workloads with poor
// estimates (the big-data class) therefore degrade selection quality, which
// reproduces the POSUM finding (Table 9, last row).
package portfolio

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"atlarge/internal/cluster"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

// Selector chooses a policy for the next scheduling window.
type Selector interface {
	// Name identifies the selector in reports.
	Name() string
	// Select picks a policy for window. simRuns reports how many full window
	// simulations the selection performed (the online selection cost).
	Select(window *workload.Trace, envFactory func() *cluster.Environment, policies []sched.Policy, seed int64) (chosen sched.Policy, simRuns int)
	// Observe feeds back the realized quality (mean bounded slowdown; lower
	// is better) of the chosen policy on the window.
	Observe(policy sched.Policy, realizedSlowdown float64)
}

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

// simulateScore runs policy on the estimated window and returns mean bounded
// slowdown (math.Inf on simulation error, which never wins).
func simulateScore(window *workload.Trace, envFactory func() *cluster.Environment, p sched.Policy, seed int64) float64 {
	res, err := sched.NewSimulator(envFactory(), estimateTrace(window), p, seed).Run()
	if err != nil || res.Completed == 0 {
		return math.Inf(1)
	}
	return res.MeanSlowdown
}

// Exhaustive simulates every policy each round.
type Exhaustive struct{}

// Name implements Selector.
func (Exhaustive) Name() string { return "exhaustive" }

// Select implements Selector. The candidate simulations are independent
// (each gets a fresh environment and an estimate-clone of the window), so
// they run concurrently; the argmin keeps the sequential tie-break (lowest
// portfolio index wins).
func (Exhaustive) Select(window *workload.Trace, envFactory func() *cluster.Environment, policies []sched.Policy, seed int64) (sched.Policy, int) {
	scores := make([]float64, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func(i int, p sched.Policy) {
			defer wg.Done()
			scores[i] = simulateScore(window, envFactory, p, seed)
		}(i, p)
	}
	wg.Wait()
	best := 0
	for i := range policies {
		if scores[i] < scores[best] {
			best = i
		}
	}
	return policies[best], len(policies)
}

// Observe implements Selector (exhaustive selection needs no feedback).
func (Exhaustive) Observe(sched.Policy, float64) {}

// ActiveSet simulates only the K best-scoring policies of recent rounds and
// refreshes the full set every RefreshEvery rounds.
type ActiveSet struct {
	K            int
	RefreshEvery int

	round  int
	scores map[string]float64 // smoothed realized slowdown per policy
}

// NewActiveSet returns an active-set selector keeping k policies and doing a
// full refresh every refreshEvery rounds.
func NewActiveSet(k, refreshEvery int) *ActiveSet {
	return &ActiveSet{K: k, RefreshEvery: refreshEvery, scores: make(map[string]float64)}
}

// Name implements Selector.
func (a *ActiveSet) Name() string { return fmt.Sprintf("active-set(k=%d)", a.K) }

// Select implements Selector.
func (a *ActiveSet) Select(window *workload.Trace, envFactory func() *cluster.Environment, policies []sched.Policy, seed int64) (sched.Policy, int) {
	a.round++
	candidates := policies
	if a.round > 1 && (a.RefreshEvery == 0 || a.round%a.RefreshEvery != 0) {
		candidates = a.topK(policies)
	}
	best := candidates[0]
	bestScore := math.Inf(1)
	for _, p := range candidates {
		s := simulateScore(window, envFactory, p, seed)
		// Seed the score table from simulation so unexplored policies have a
		// baseline before realized feedback arrives.
		if _, ok := a.scores[p.Name()]; !ok {
			a.scores[p.Name()] = s
		}
		if s < bestScore {
			bestScore = s
			best = p
		}
	}
	return best, len(candidates)
}

// topK returns the K policies with the lowest smoothed slowdown; ties and
// unknown policies rank by portfolio order.
func (a *ActiveSet) topK(policies []sched.Policy) []sched.Policy {
	k := a.K
	if k <= 0 || k > len(policies) {
		k = len(policies)
	}
	idx := make([]int, len(policies))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		sx, okx := a.scores[policies[idx[x]].Name()]
		sy, oky := a.scores[policies[idx[y]].Name()]
		if okx != oky {
			return okx // known scores first
		}
		return sx < sy
	})
	out := make([]sched.Policy, 0, k)
	for _, i := range idx[:k] {
		out = append(out, policies[i])
	}
	return out
}

// Observe implements Selector with exponential smoothing.
func (a *ActiveSet) Observe(p sched.Policy, realized float64) {
	const alpha = 0.5
	if old, ok := a.scores[p.Name()]; ok {
		a.scores[p.Name()] = alpha*realized + (1-alpha)*old
	} else {
		a.scores[p.Name()] = realized
	}
}

// QLearning selects policies epsilon-greedily on learned values, with no
// online simulation (selection cost 0), in the style of Ananke.
type QLearning struct {
	Epsilon float64
	Alpha   float64

	values map[string]float64
	seen   map[string]bool
	step   int
}

// NewQLearning returns a Q-learning selector with exploration rate epsilon
// and learning rate alpha.
func NewQLearning(epsilon, alpha float64) *QLearning {
	return &QLearning{
		Epsilon: epsilon,
		Alpha:   alpha,
		values:  make(map[string]float64),
		seen:    make(map[string]bool),
	}
}

// Name implements Selector.
func (q *QLearning) Name() string { return "q-learning" }

// Select implements Selector. It never simulates (simRuns = 0).
func (q *QLearning) Select(window *workload.Trace, envFactory func() *cluster.Environment, policies []sched.Policy, seed int64) (sched.Policy, int) {
	q.step++
	// Explore any policy not yet tried, in order.
	for _, p := range policies {
		if !q.seen[p.Name()] {
			q.seen[p.Name()] = true
			return p, 0
		}
	}
	// Epsilon-greedy: deterministic pseudo-random exploration from the step
	// counter and seed, so runs are reproducible.
	h := uint64(seed)*2654435761 + uint64(q.step)*40503
	if float64(h%1000)/1000 < q.Epsilon {
		return policies[int(h/1000)%len(policies)], 0
	}
	best := policies[0]
	bestV := math.Inf(1)
	for _, p := range policies {
		if v, ok := q.values[p.Name()]; ok && v < bestV {
			bestV = v
			best = p
		}
	}
	return best, 0
}

// Observe implements Selector with a running value update.
func (q *QLearning) Observe(p sched.Policy, realized float64) {
	if v, ok := q.values[p.Name()]; ok {
		q.values[p.Name()] = v + q.Alpha*(realized-v)
	} else {
		q.values[p.Name()] = realized
	}
}
