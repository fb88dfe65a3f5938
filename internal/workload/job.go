// Package workload models the workloads that drive the datacenter, P2P,
// MMOG, and FaaS simulators: jobs, bags-of-tasks, workflows (DAGs), and the
// arrival processes that submit them.
//
// The generators cover the workload classes of the paper's Table 9
// (synthetic, scientific, computer-engineering, business-critical, big-data,
// gaming, industrial IoT) so that the portfolio-scheduling experiment can
// sweep the same workload × environment grid.
package workload

import (
	"fmt"
	"slices"
	"sort"

	"atlarge/internal/sim"
)

// Class identifies a workload family from Table 9 of the paper.
type Class int

// Workload classes. Values match the Table 9 acronyms.
const (
	ClassSynthetic           Class = iota + 1 // Syn
	ClassScientific                           // Sci
	ClassComputerEngineering                  // CE
	ClassBusinessCritical                     // BC
	ClassBigData                              // BD
	ClassGaming                               // G
	ClassIndustrial                           // Ind
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSynthetic:
		return "Syn"
	case ClassScientific:
		return "Sci"
	case ClassComputerEngineering:
		return "CE"
	case ClassBusinessCritical:
		return "BC"
	case ClassBigData:
		return "BD"
	case ClassGaming:
		return "G"
	case ClassIndustrial:
		return "Ind"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Task is the unit of execution. A Task needs CPUs machine slots for
// Runtime virtual seconds.
type Task struct {
	ID      int
	JobID   int
	CPUs    int
	Runtime sim.Duration
	// RuntimeEstimate is the user- or predictor-provided runtime, used by
	// backfilling schedulers; it may be wrong (and for the big-data class it
	// deliberately is, to reproduce the Table 9 POSUM finding).
	RuntimeEstimate sim.Duration
	// Deps lists task IDs within the same job that must finish first.
	Deps []int
}

// Job is a set of tasks submitted together: a single task, a bag-of-tasks,
// or a workflow when dependencies are present.
type Job struct {
	ID       int
	Submit   sim.Time
	Tasks    []Task
	Class    Class
	Deadline sim.Duration // 0 means no deadline SLA; relative to Submit
}

// TotalWork returns the sum of CPU-seconds over all tasks.
func (j *Job) TotalWork() float64 {
	w := 0.0
	for _, t := range j.Tasks {
		w += float64(t.CPUs) * float64(t.Runtime)
	}
	return w
}

// IsWorkflow reports whether any task has dependencies.
func (j *Job) IsWorkflow() bool {
	for _, t := range j.Tasks {
		if len(t.Deps) > 0 {
			return true
		}
	}
	return false
}

// DAGScratch is reusable working storage for CheckDAG: checking a stream of
// jobs with one scratch allocates only when a job outgrows every earlier
// one. The zero value is ready to use; a scratch is not safe for concurrent
// use.
type DAGScratch struct {
	pos    map[int]int32  // task ID -> index
	state  []uint8        // per task: unvisited, on the DFS path, or done
	finish []sim.Duration // per done task: finish time under infinite resources
}

const (
	dagUnvisited uint8 = iota
	dagOnPath
	dagDone
)

// CheckDAG checks that task IDs are unique and that dependencies reference
// existing tasks and contain no cycles, and returns the job's critical path:
// the length, in virtual seconds, of the longest dependency chain (the lower
// bound on its makespan with infinite resources). It makes one depth-first
// pass over the tasks. On an invalid job it returns 0 and the first problem
// found: a duplicate task ID, or, in depth-first order from each task in
// turn, a missing dependency or a cycle.
func (j *Job) CheckDAG(sc *DAGScratch) (sim.Duration, error) {
	n := len(j.Tasks)
	if n == 0 {
		return 0, nil
	}
	if sc.pos == nil {
		sc.pos = make(map[int]int32, n)
	}
	clear(sc.pos)
	for i := range j.Tasks {
		id := j.Tasks[i].ID
		if _, dup := sc.pos[id]; dup {
			return 0, fmt.Errorf("workload: job %d: duplicate task id %d", j.ID, id)
		}
		sc.pos[id] = int32(i)
	}
	sc.state = slices.Grow(sc.state[:0], n)[:n]
	clear(sc.state)
	sc.finish = slices.Grow(sc.finish[:0], n)[:n]
	var cp sim.Duration
	for i := range j.Tasks {
		if err := sc.visit(j, int32(i)); err != nil {
			return 0, err
		}
		if f := sc.finish[i]; f > cp {
			cp = f
		}
	}
	return cp, nil
}

// Index returns the position in Tasks of the task with the given ID, in the
// job this scratch last checked without error.
func (sc *DAGScratch) Index(id int) (int, bool) {
	i, ok := sc.pos[id]
	return int(i), ok
}

// visit finishes task i after every task it depends on.
func (sc *DAGScratch) visit(j *Job, i int32) error {
	switch sc.state[i] {
	case dagOnPath:
		return fmt.Errorf("workload: job %d: dependency cycle through task %d", j.ID, j.Tasks[i].ID)
	case dagDone:
		return nil
	}
	sc.state[i] = dagOnPath
	t := &j.Tasks[i]
	var start sim.Duration
	for _, d := range t.Deps {
		k, ok := sc.pos[d]
		if !ok {
			return fmt.Errorf("workload: job %d: task %d depends on missing task %d", j.ID, t.ID, d)
		}
		if err := sc.visit(j, k); err != nil {
			return err
		}
		if f := sc.finish[k]; f > start {
			start = f
		}
	}
	sc.finish[i] = start + t.Runtime
	sc.state[i] = dagDone
	return nil
}

// Clone deep-copies the job, its tasks, and their dependency lists. It is
// how a JobSource consumer retains a job past the next Next call.
func (j *Job) Clone() *Job {
	nj := *j
	nj.Tasks = make([]Task, len(j.Tasks))
	copy(nj.Tasks, j.Tasks)
	for ti := range nj.Tasks {
		if deps := nj.Tasks[ti].Deps; len(deps) > 0 {
			nj.Tasks[ti].Deps = append([]int(nil), deps...)
		} else {
			// Drop empty headers too: they may alias a source's dep arena.
			nj.Tasks[ti].Deps = nil
		}
	}
	return &nj
}

// Trace is an ordered collection of jobs, the interchange format between
// generators, schedulers, and trace I/O.
type Trace struct {
	Name string
	Jobs []*Job
}

// Clone deep-copies the trace (jobs, tasks, and task dependency lists), so
// runs that mutate job state — submission rescaling, dependency remapping,
// repeated simulations — cannot interfere. The copies share one slab each
// of jobs, tasks and deps, sized exactly; see Collect for what callers may
// do with them.
func (tr *Trace) Clone() *Trace {
	tasks, deps := 0, 0
	for _, j := range tr.Jobs {
		tasks += len(j.Tasks)
		for _, t := range j.Tasks {
			deps += len(t.Deps)
		}
	}
	a := cloneArena{jobs: make([]Job, 0, len(tr.Jobs)), tasks: make([]Task, 0, tasks), deps: make([]int, 0, deps)}
	cp := &Trace{Name: tr.Name, Jobs: make([]*Job, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		cp.Jobs[i] = a.clone(j, i, len(tr.Jobs))
	}
	return cp
}

// cloneArena hands out the storage of cloned jobs in chunks of jobs, tasks
// and deps, so cloning n jobs allocates O(chunks) objects instead of O(n).
// A chunk's capacity is rounded up to its allocation size class (through
// slices.Grow), and later jobs fill what the rounding adds. A job's Tasks
// and a task's Deps are capped at their length (full slice expressions), so
// appending to one copies it instead of writing into its neighbour; empty
// Deps are nil, as with Job.Clone.
type cloneArena struct {
	jobs  []Job
	tasks []Task
	deps  []int
	// tasks and deps handed out so far, which size the next chunks
	nTasks, nDeps int
}

// maxChunk caps the length of one arena chunk; a job that needs more gets a
// chunk of its own size.
const maxChunk = 1 << 12

// edgeJobs is how many jobs at each end of a trace get chunks of exactly
// their own tasks and deps.
const edgeJobs = 16

// arenaChunk returns the length of a new chunk that must hold need items,
// when seen items went to the first k of n jobs (n <= 0: n is unknown).
// The first and last edgeJobs jobs get exactly need: the first because too
// few jobs were seen to estimate from, the last because the estimate of a
// few jobs is too noisy to size a chunk they may leave part empty. Between
// them a chunk holds three quarters of what the remaining jobs are
// expected to need, so it is rarely left part empty, and a trace of n jobs
// costs O(log n) chunks and about its exact bytes; for an unknown n it at
// most doubles what the arena has handed out.
func arenaChunk(need, seen, k, n int) int {
	if k < edgeJobs || n > 0 && n-k < edgeJobs {
		return need
	}
	size := seen
	if n > 0 {
		size = int(int64(seen) * int64(n-k) * 3 / (4 * int64(k)))
	}
	return max(need, min(size, maxChunk))
}

// clone copies j, the k-th job of a trace of n (n <= 0: unknown), into the
// arena.
func (a *cloneArena) clone(j *Job, k, n int) *Job {
	if len(a.jobs) == cap(a.jobs) {
		size := max(k, 1)
		if n > 0 {
			size = n - k
		}
		a.jobs = slices.Grow([]Job(nil), max(1, min(size, maxChunk)))
	}
	a.jobs = append(a.jobs, *j)
	nj := &a.jobs[len(a.jobs)-1]

	nt, nd := len(j.Tasks), 0
	for _, t := range j.Tasks {
		nd += len(t.Deps)
	}
	if cap(a.tasks)-len(a.tasks) < nt {
		a.tasks = slices.Grow([]Task(nil), arenaChunk(nt, a.nTasks, k, n))
	}
	if cap(a.deps)-len(a.deps) < nd {
		a.deps = slices.Grow([]int(nil), arenaChunk(nd, a.nDeps, k, n))
	}
	a.nTasks += nt
	a.nDeps += nd
	at := len(a.tasks)
	a.tasks = append(a.tasks, j.Tasks...)
	nj.Tasks = a.tasks[at:len(a.tasks):len(a.tasks)]
	for ti := range nj.Tasks {
		t := &nj.Tasks[ti]
		if len(t.Deps) == 0 {
			// Drop empty headers too: they may alias a source's dep arena.
			t.Deps = nil
			continue
		}
		at := len(a.deps)
		a.deps = append(a.deps, t.Deps...)
		t.Deps = a.deps[at:len(a.deps):len(a.deps)]
	}
	return nj
}

// SortBySubmit orders jobs by submission time (stable).
func (tr *Trace) SortBySubmit() {
	sort.SliceStable(tr.Jobs, func(i, j int) bool { return tr.Jobs[i].Submit < tr.Jobs[j].Submit })
}

// Span returns the submission span (last submit − first submit).
func (tr *Trace) Span() sim.Duration {
	if len(tr.Jobs) == 0 {
		return 0
	}
	first, last := tr.Jobs[0].Submit, tr.Jobs[0].Submit
	for _, j := range tr.Jobs {
		if j.Submit < first {
			first = j.Submit
		}
		if j.Submit > last {
			last = j.Submit
		}
	}
	return last - first
}

// Validate runs CheckDAG over all jobs.
func (tr *Trace) Validate() error {
	var sc DAGScratch
	for _, j := range tr.Jobs {
		if _, err := j.CheckDAG(&sc); err != nil {
			return err
		}
	}
	return nil
}
