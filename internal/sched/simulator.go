package sched

import (
	"cmp"
	"fmt"
	"math"
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

	k       *sim.Kernel
	queue   []*TaskState
	running map[*TaskState]*cluster.Machine
	ctx     *Context

	pendingDeps map[int]int                    // task ID -> unfinished dep count
	dependents  map[int][]*TaskState           // task ID -> states waiting on it
	jobLeft     map[int]int                    // job ID -> unfinished task count
	jobStart    map[int]sim.Time               // job ID -> first task start
	jobStarted  map[int]bool                   //
	estFinish   map[*cluster.Machine][]estSlot // for EASY reservations

	// Per-job state is reclaimed as jobs finish and stats fold into agg, so
	// memory tracks in-flight jobs rather than trace length.
	feed feeder
	agg  aggregate

	// Flattened machine list (with the owning cluster per slot), built once
	// per run so placement does not walk the cluster nesting every probe.
	machines     []*cluster.Machine
	machClusters []*cluster.Cluster
	scratch      []*TaskState // reused queue buffer for dispatch

	// queueDirty is set when tasks are appended to the queue; a clean queue
	// under a StaticOrder policy is already sorted (placement removals keep
	// relative order), so the per-cycle sort can be skipped.
	queueDirty bool
	// minWidth is the narrowest CPU request in the queue (a lower bound is
	// enough): when even that cannot be placed the whole cycle is a no-op.
	minWidth int

	dispatchPending bool
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
	s.running = make(map[*TaskState]*cluster.Machine)
	s.pendingDeps = make(map[int]int)
	s.dependents = make(map[int][]*TaskState)
	s.jobLeft = make(map[int]int)
	s.jobStart = make(map[int]sim.Time)
	s.jobStarted = make(map[int]bool)
	s.estFinish = make(map[*cluster.Machine][]estSlot)
	s.ctx = &Context{ServedWork: make(map[int]float64), Rand: s.k.Rand("policy")}
	s.minWidth = math.MaxInt
	s.machines = s.machines[:0]
	s.machClusters = s.machClusters[:0]
	for _, cl := range s.env.Clusters {
		for _, m := range cl.Machines {
			s.machines = append(s.machines, m)
			s.machClusters = append(s.machClusters, cl)
		}
	}
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

func (s *Simulator) onJobArrive(job *workload.Job) {
	for i := range job.Tasks {
		t := &job.Tasks[i]
		st := &TaskState{Job: job, Task: t, Ready: s.k.Now()}
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

// enqueue appends a ready task and maintains the queue bookkeeping.
func (s *Simulator) enqueue(st *TaskState) {
	s.queue = append(s.queue, st)
	s.queueDirty = true
	if st.Task.CPUs < s.minWidth {
		s.minWidth = st.Task.CPUs
	}
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
	s.k.After(0, "dispatch", func(k *sim.Kernel) {
		s.dispatchPending = false
		s.dispatch()
	})
}

// dispatch orders the queue by policy and greedily places tasks.
func (s *Simulator) dispatch() {
	if len(s.queue) == 0 {
		return
	}
	s.ctx.Now = s.k.Now()
	if s.policy.PureOrder() {
		// Saturation shortcut: when even the narrowest queued request
		// cannot fit anywhere, the cycle places nothing, and a pure
		// ordering can be deferred to the next cycle that matters.
		maxFree := 0
		for _, m := range s.machines {
			if f := m.Free(); f > maxFree {
				maxFree = f
			}
		}
		if maxFree < s.minWidth {
			s.recordUtilization()
			return
		}
	}
	if s.queueDirty || !s.policy.StaticOrder() {
		s.policy.Order(s.ctx, s.queue)
		s.queueDirty = false
	}

	var headReservation sim.Time
	headSeen := false
	remaining := s.scratch[:0]
	blocked := false
	// Within one dispatch cycle free capacity never grows (placements claim
	// cores; the EASY revert below returns exactly what it just claimed), so
	// once a placement for some width fails, every later task at least as
	// wide must fail too. Tracking the narrowest failed width makes probes
	// for a saturated environment O(1) instead of a full machine scan.
	minFailed := math.MaxInt
	for qi, st := range s.queue {
		if blocked {
			remaining = append(remaining, s.queue[qi:]...)
			break
		}
		var m *cluster.Machine
		var cl *cluster.Cluster
		if st.Task.CPUs < minFailed {
			m, cl = s.place(st.Task.CPUs)
		}
		if m == nil {
			if st.Task.CPUs < minFailed {
				minFailed = st.Task.CPUs
			}
			remaining = append(remaining, st)
			if !s.policy.AllowSkip() {
				blocked = true
			}
			if s.policy.EasyReservation() && !headSeen {
				headSeen = true
				headReservation = s.reservationTime(st.Task.CPUs)
			}
			continue
		}
		if s.policy.EasyReservation() && headSeen {
			estFin := s.k.Now() + st.Task.RuntimeEstimate/sim.Duration(m.Speed)
			if estFin > headReservation {
				// Would delay the head's reservation: put it back.
				if err := m.Release(st.Task.CPUs); err != nil {
					panic(err)
				}
				remaining = append(remaining, st)
				continue
			}
		}
		s.start(st, m, cl)
	}
	s.minWidth = math.MaxInt
	for _, st := range remaining {
		if st.Task.CPUs < s.minWidth {
			s.minWidth = st.Task.CPUs
		}
	}
	s.scratch = s.queue // recycle the old backing array next cycle
	s.queue = remaining
	s.recordUtilization()
}

// place finds a machine with cpus free slots, preferring earlier clusters.
func (s *Simulator) place(cpus int) (*cluster.Machine, *cluster.Cluster) {
	for i, m := range s.machines {
		if m.Free() >= cpus {
			if err := m.Claim(cpus); err != nil {
				panic(err)
			}
			return m, s.machClusters[i]
		}
	}
	return nil, nil
}

// reservationTime estimates the earliest time cpus slots free up on any
// machine, from the estimated finishes of running tasks.
func (s *Simulator) reservationTime(cpus int) sim.Time {
	best := sim.Time(math.Inf(1))
	for _, cl := range s.env.Clusters {
		for _, m := range cl.Machines {
			if m.Cores < cpus {
				continue
			}
			slots := s.estFinish[m]
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
	}
	return best
}

func (s *Simulator) start(st *TaskState, m *cluster.Machine, cl *cluster.Cluster) {
	now := s.k.Now()
	st.Started = true
	st.StartAt = now
	runtime := st.Task.Runtime / sim.Duration(m.Speed)
	// Cross-site placement pays the environment's inter-cluster latency once,
	// modeling data movement between sites (grids and geo-distributed
	// datacenters pay more).
	if len(s.env.Clusters) > 1 && cl != s.env.Clusters[0] {
		runtime += s.env.InterLatency
	}
	st.FinishAt = now + runtime
	s.running[st] = m
	est := now + st.Task.RuntimeEstimate/sim.Duration(m.Speed)
	s.estFinish[m] = append(s.estFinish[m], estSlot{at: est, cpus: st.Task.CPUs})
	if !s.jobStarted[st.Job.ID] {
		s.jobStarted[st.Job.ID] = true
		s.jobStart[st.Job.ID] = now
	}
	s.k.At(st.FinishAt, "task-finish", func(k *sim.Kernel) { s.onTaskFinish(st, m) })
}

func (s *Simulator) onTaskFinish(st *TaskState, m *cluster.Machine) {
	if err := m.Release(st.Task.CPUs); err != nil {
		panic(err)
	}
	delete(s.running, st)
	// Drop the estimate slot (first matching).
	slots := s.estFinish[m]
	for i := range slots {
		if slots[i].cpus == st.Task.CPUs {
			s.estFinish[m] = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	s.ctx.ServedWork[st.Job.ID] += float64(st.Task.CPUs) * float64(st.Task.Runtime)

	for _, dep := range s.dependents[st.Task.ID] {
		s.pendingDeps[dep.Task.ID]--
		if s.pendingDeps[dep.Task.ID] == 0 {
			delete(s.pendingDeps, dep.Task.ID)
			dep.Ready = s.k.Now()
			s.enqueue(dep)
		}
	}
	delete(s.dependents, st.Task.ID)

	s.jobLeft[st.Job.ID]--
	if s.jobLeft[st.Job.ID] == 0 {
		s.finishJob(st.Job)
	}
	s.scheduleDispatch()
}

func (s *Simulator) finishJob(job *workload.Job) {
	now := s.k.Now()
	start := s.jobStart[job.ID]
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
	delete(s.jobStart, job.ID)
	delete(s.jobStarted, job.ID)
	delete(s.jobLeft, job.ID)
	delete(s.ctx.ServedWork, job.ID)
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
