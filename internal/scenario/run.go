package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"atlarge"
	"atlarge/internal/exec"
	"atlarge/internal/sched"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// Options configures a scenario execution.
type Options struct {
	// Replicas overrides the spec's replica count; 0 keeps the spec value
	// (which itself defaults to 1).
	Replicas int
	// Parallelism bounds the executor's worker pool; 0 means GOMAXPROCS.
	// Reports are byte-identical at every parallelism level.
	Parallelism int
	// Seed overrides the spec's base seed when non-nil.
	Seed *int64
	// Progress, when non-nil, observes every (cell, replica) completion as
	// it streams out of the executor: done counts completions so far, total
	// is the plan size, and id names the finished task ("name/policy=sjf#1").
	// Calls arrive sequentially, in completion order.
	Progress func(done, total int, id string)
	// Checkpoint, when non-empty, persists completed (cell, replica)
	// results under this directory and resumes from them on a rerun: the
	// run's files live in Checkpoint/<hash>/ where <hash> is a content hash
	// of the spec document plus the effective seed and replica count, so
	// any spec edit, seed change, or replica change starts a fresh run
	// directory instead of mixing incompatible results. A resumed sweep
	// produces a report byte-identical to an uninterrupted run. The hash
	// does not cover the binary itself: after upgrading atlarge across a
	// change to a simulator, clear the directory — stored results are
	// reused as-is.
	Checkpoint string
	// Stats, when non-nil, receives the executor's live queue counters;
	// the serve layer shares one Stats across every plan it runs so its
	// admission control and /metrics see the whole process backlog.
	Stats *exec.Stats
	// SpanObserver, when non-nil, turns on executor span recording and
	// receives every non-skipped (cell, replica) task's span along with the
	// task's error, in completion order from the collecting goroutine.
	SpanObserver func(index int, id string, span exec.TaskSpan, err error)
	// Stream, when non-nil, replaces the in-process executor: the plan is
	// handed to this StreamFunc instead of exec.Stream. The distributed
	// dispatcher plugs in here (see Distribute); because aggregation is
	// positional, the substitution cannot change report bytes.
	Stream exec.StreamFunc[[]MetricValue]
}

// Effective resolves the run's seed and replica count from the spec and the
// option overrides — the same resolution Run applies, exported so the
// distributed path can describe the identical job to remote workers.
func Effective(s *Spec, opt Options) (seed int64, replicas int) {
	replicas = opt.Replicas
	if replicas <= 0 {
		replicas = s.Replicas
	}
	if replicas <= 0 {
		replicas = 1
	}
	seed = s.Seed
	if opt.Seed != nil {
		seed = *opt.Seed
	}
	return seed, replicas
}

// Run executes the concrete scenarios over the streaming work-plan executor
// (internal/exec) and aggregates each cell's replica metrics into mean ±
// 95% CI incrementally as completions stream in — full replica documents
// are never buffered, so memory is bounded by the metric values the final
// report itself carries.
//
// Every (scenario, replica) pair is one plan task with two deterministic
// derived seeds: the simulation seed atlarge.DeriveSeed(base, cellID,
// replica), and the workload-generation seed DeriveSeed(base, workloadID,
// replica), where workloadID carries only the generation-relevant axes of
// the domain. Cells that differ only in policy, load, shape, or technique
// therefore face the identical generated input per replica (common random
// numbers), so their comparison measures the design change, not workload
// sampling noise.
//
// Those cells also share the input itself: the unscaled trace of each
// (workloadID, replica) is built once per run, and every cell gets its own
// copy of the job headers to rescale to its load while the tasks stay
// shared, read-only. A trace is dropped once the last task that needs it
// has reported, so memory holds the traces with pending tasks plus one
// header copy per running task. Tasks handed to Options.Stream run on dist
// workers, which share traces through their own memo (see WorkerBuilder).
//
// Cancelling ctx stops the sweep cooperatively: unstarted tasks are
// skipped and the context's error is returned. With Options.Checkpoint set,
// completed tasks persist first, so a cancelled sweep resumes where it
// stopped.
func Run(ctx context.Context, s *Spec, cells []Scenario, opt Options) (*Report, error) {
	return run(ctx, s, cells, opt, &traceMemo{})
}

// run is Run sharing traces through memo.
func run(ctx context.Context, s *Spec, cells []Scenario, opt Options, memo *traceMemo) (*Report, error) {
	d, err := s.domainImpl()
	if err != nil {
		return nil, err
	}
	seed, replicas := Effective(s, opt)

	// The memo rides on Run's own copy of the cells, so the caller's stay
	// as they were.
	cells = slices.Clone(cells)
	for i := range cells {
		cells[i].traces = memo
	}
	keys := make([]traceKey, 0, len(cells)*replicas)
	plan, err := layoutPlan(cells, seed, replicas, func(t planTask) func(context.Context) ([]MetricValue, error) {
		key := traceKey{workloadID: t.workloadID, seed: t.workloadSeed}
		memo.reserve(key)
		keys = append(keys, key)
		return func(context.Context) ([]MetricValue, error) {
			return t.cell.domain.Run(t.cell, t.workloadSeed, t.simSeed)
		}
	})
	if err != nil {
		return nil, err
	}

	execOpt := exec.Options[[]MetricValue]{
		Workers: opt.Parallelism,
		Stats:   opt.Stats,
		Spans:   opt.SpanObserver != nil,
	}
	var ckpt *checkpoint
	if opt.Checkpoint != "" {
		ckpt, err = openCheckpoint(opt.Checkpoint, s, seed, replicas, len(cells))
		if err != nil {
			return nil, err
		}
		execOpt.Cache = ckpt
	}

	// Aggregate incrementally: each event's metric values fold into its
	// cell's accumulator (replica slot = index % replicas) and the full
	// result is dropped. Failures are collected in task order so the joined
	// error is deterministic at any parallelism.
	acc := make([]cellAccumulator, len(cells))
	for i := range acc {
		acc[i].byReplica = make([][]MetricValue, replicas)
	}
	stream := opt.Stream
	if stream == nil {
		stream = exec.Stream[[]MetricValue]
	}
	errs := make([]error, plan.Len())
	done := 0
	for ev := range stream(ctx, plan, execOpt) {
		memo.release(keys[ev.Index])
		if ev.Err != nil {
			errs[ev.Index] = ev.Err
		} else {
			acc[ev.Index/replicas].byReplica[ev.Index%replicas] = ev.Result
		}
		done++
		if opt.Progress != nil {
			opt.Progress(done, plan.Len(), ev.ID)
		}
		if opt.SpanObserver != nil && ev.Span != nil {
			opt.SpanObserver(ev.Index, ev.ID, *ev.Span, ev.Err)
		}
	}
	// Interrupted means work was actually lost: the context fired AND some
	// task was skipped or returned its error. A deadline that expires after
	// the final task completed must not discard the finished report.
	lost := false
	for _, err := range errs {
		if err != nil {
			lost = true
			break
		}
	}
	if err := ctx.Err(); err != nil && lost {
		// A genuine cell failure must not be masked by the concurrent
		// cancellation: surface the first one alongside the interruption.
		for i, terr := range errs {
			if terr != nil && !errors.Is(terr, context.Canceled) && !errors.Is(terr, context.DeadlineExceeded) {
				err = fmt.Errorf("%w; cell %s (replica %d) also failed: %v",
					err, cells[i/replicas].ID(), i%replicas, terr)
				break
			}
		}
		if ckpt != nil {
			if serr := ckpt.Err(); serr != nil {
				return nil, fmt.Errorf("scenario: run interrupted (%w) and checkpointing failed: %v", err, serr)
			}
			return nil, fmt.Errorf("scenario: run interrupted: %w (completed work is checkpointed under %s; rerun with the same --checkpoint %s to resume)", err, ckpt.dir, ckpt.root)
		}
		return nil, fmt.Errorf("scenario: run interrupted: %w", err)
	}
	// Every failed cell is reported (joined, in task order), so one rerun
	// is enough to see and fix all of them.
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("scenario: cell %s (replica %d): %w",
				cells[i/replicas].ID(), i%replicas, err))
		}
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	// A storage failure on a run that nonetheless completed is not fatal:
	// the report in hand is correct and complete, only the durability of a
	// future resume suffered (Cache storage is best-effort by contract).

	rep := &Report{
		Name:        s.Name,
		SpecVersion: s.Version,
		Domain:      d.Name(),
		Seed:        seed,
		Replicas:    replicas,
		Objective:   s.objective(d),
		Axes:        reportAxes(s),
		Cells:       make([]Cell, len(cells)),
		directions:  metricDirections(d),
	}
	for i := range cells {
		rep.Cells[i] = acc[i].cell(&cells[i], seed)
	}
	rep.highlight()
	return rep, nil
}

// cellAccumulator folds one cell's streamed replica results; only the typed
// metric values are retained, never the surrounding documents.
type cellAccumulator struct {
	// byReplica holds each replica's emitted metrics, replica index order.
	byReplica [][]MetricValue
}

// cell assembles the aggregated Cell: metric emission order comes from
// replica 0, values fold across replicas in replica order. Cell.Seed is the
// replica-0 simulation seed, so a single replica of the cell can be
// reproduced directly.
func (a *cellAccumulator) cell(sc *Scenario, baseSeed int64) Cell {
	cell := Cell{
		ID:      sc.ID(),
		Params:  sc.Params,
		Seed:    atlarge.DeriveSeed(baseSeed, sc.ID(), 0),
		Metrics: map[string]Metric{},
	}
	values := map[string][]float64{}
	var order []string
	for rep, ms := range a.byReplica {
		for _, m := range ms {
			if rep == 0 {
				order = append(order, m.Name)
			}
			values[m.Name] = append(values[m.Name], m.Value)
		}
	}
	for _, name := range order {
		cell.Metrics[name] = NewMetric(values[name])
	}
	return cell
}

// metricDirections maps a domain's metric names to their comparison
// direction (true = higher is better).
func metricDirections(d Domain) map[string]bool {
	out := make(map[string]bool)
	for _, m := range d.Metrics() {
		out[m.Name] = m.HigherBetter
	}
	return out
}

// reportAxes renders the spec's sweep axes in expansion order.
func reportAxes(s *Spec) []Axis {
	var out []Axis
	for _, name := range s.sweepAxes() {
		ax := Axis{Name: name}
		for _, v := range s.Sweep[name] {
			ax.Values = append(ax.Values, formatValue(v))
		}
		out = append(out, ax)
	}
	return out
}

// planTask is one (cell, replica) task of a sweep plan with its derived
// seed pair.
type planTask struct {
	cell                  *Scenario
	workloadID            string
	workloadSeed, simSeed int64
}

// layoutPlan lays out one task per (cell, replica), cell-major, so the
// index cell*replicas+rep is the positional slot aggregation reads. Task
// IDs are "cellID#rep"; the workload seed is DeriveSeed(seed, WorkloadID,
// rep) and the simulation seed DeriveSeed(seed, ID, rep). Run and
// WorkerBuilder both lay out through it, so a task index means the same
// (cell, replica) on a dist worker as on the dispatcher. body returns each
// task's function.
func layoutPlan[R any](cells []Scenario, seed int64, replicas int, body func(planTask) func(context.Context) (R, error)) (*exec.Plan[R], error) {
	plan := &exec.Plan[R]{}
	seen := make(map[string]bool, len(cells))
	for i := range cells {
		sc := &cells[i]
		id := sc.ID()
		if seen[id] {
			return nil, fmt.Errorf("scenario: duplicate cell %q (a sweep axis repeats a value?)", id)
		}
		seen[id] = true
		workloadID := sc.WorkloadID()
		for rep := 0; rep < replicas; rep++ {
			plan.Add(id+"#"+strconv.Itoa(rep), body(planTask{
				cell:         sc,
				workloadID:   workloadID,
				workloadSeed: atlarge.DeriveSeed(seed, workloadID, rep),
				simSeed:      atlarge.DeriveSeed(seed, id, rep),
			}))
		}
	}
	return plan, nil
}

// traceKey names one shared trace: a workload identity and the workload
// seed of one replica. On a dist worker, job (a digest of the job document)
// keeps the traces of different jobs apart; it is empty inside Run.
type traceKey struct {
	job        string
	workloadID string
	seed       int64
}

// traceMemo shares unscaled traces between cells. Each task that needs a
// trace reserves its entry and releases it once done with it; the entry is
// built on first use. Run's memo reserves every task before the plan starts
// and releases each as its event arrives, so an entry is dropped when its
// last task has reported, whether the task ran, was served from a
// checkpoint, or was skipped. A dist worker's memo (keepIdle) lives as long
// as the worker and its tasks reserve around their own runs; an entry whose
// last running task releases it stays as the memo's one idle entry, so the
// next claim of its group reuses it, until another entry goes idle or a
// task needs a trace the memo lacks. The worker thus holds the traces of
// its running tasks plus one, and no idle trace while it builds one.
//
// The memo also lends its sched cells their simulators (see simulators), so
// the free list lives exactly as long as the run or the worker.
type traceMemo struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	// keepIdle keeps the last entry released to zero as idle.
	keepIdle bool
	idle     traceKey
	// built, when non-nil, observes every trace the memo builds.
	built func(traceKey, *workload.Trace)
	sims  sched.FreeList
}

// simulators returns the free list the memo's sched cells borrow their
// simulators from. A cell without a memo gets nil, which lends a new
// simulator each time.
func (m *traceMemo) simulators() *sched.FreeList {
	if m == nil {
		return nil
	}
	return &m.sims
}

// traceEntry is one shared trace, built on first use. The build error is
// stored without a cell ID: each cell names itself when it reports it.
type traceEntry struct {
	once    sync.Once
	tr      *workload.Trace
	err     error
	pending int
}

// reserve counts one more task that needs key's trace.
func (m *traceMemo) reserve(key traceKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[traceKey]*traceEntry)
	}
	e := m.entries[key]
	if e == nil {
		m.dropIdleLocked()
		e = &traceEntry{}
		m.entries[key] = e
	}
	e.pending++
}

// dropIdleLocked drops the idle entry unless it was reserved again since.
func (m *traceMemo) dropIdleLocked() {
	if e := m.entries[m.idle]; e != nil && e.pending == 0 {
		delete(m.entries, m.idle)
	}
}

// release counts one task of key as done. After the last, the entry is
// dropped, or with keepIdle becomes the idle one in place of the previous.
func (m *traceMemo) release(key traceKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e == nil {
		return
	}
	if e.pending--; e.pending > 0 {
		return
	}
	if !m.keepIdle {
		delete(m.entries, key)
		return
	}
	if m.idle != key {
		m.dropIdleLocked()
	}
	m.idle = key
}

// trace returns the shared trace of key, building it on first use. Callers
// must not write to it.
func (m *traceMemo) trace(key traceKey, build func() (*workload.Trace, error)) (*workload.Trace, error) {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("scenario: workload %s (seed %d) was not reserved", key.workloadID, key.seed)
	}
	e.once.Do(func() {
		e.tr, e.err = build()
		if e.err == nil && m.built != nil {
			m.built(key, e.tr)
		}
	})
	return e.tr, e.err
}

// buildTrace resolves the scenario's workload for one replica seed and
// rescales it to the target offered load when one is set. The unscaled
// trace comes from the memo of Run or of the dist worker, and the cell
// rescales its own copy of the job headers; a cell without a memo builds a
// private trace and rescales it in place. It is shared by every domain that
// drives a job-trace workload.
func (sc *Scenario) buildTrace(seed int64, totalCores int) (*workload.Trace, error) {
	var tr *workload.Trace
	var err error
	if sc.traces != nil {
		tr, err = sc.traces.trace(traceKey{job: sc.traceJob, workloadID: sc.WorkloadID(), seed: seed},
			func() (*workload.Trace, error) { return sc.baseTrace(seed) })
		if err == nil {
			tr = headerCopy(tr)
		}
	} else {
		tr, err = sc.baseTrace(seed)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %s: %w", sc.ID(), err)
	}
	if sc.Workload.Load > 0 {
		scaleToLoad(tr, sc.Workload.Load, totalCores)
	}
	return tr, nil
}

// baseTrace builds the scenario's unscaled workload for one replica seed:
// an imported GWA trace, a streamed client population (clients > 0), or a
// generated class (with optional arrival override). It reads only the
// workload fields the Generative axes set, and its errors name no cell.
func (sc *Scenario) baseTrace(seed int64) (*workload.Trace, error) {
	if sc.Workload.Trace != "" {
		return sc.spec.loadTrace()
	}
	class, err := workload.ClassByName(sc.Workload.Class)
	if err != nil {
		return nil, err
	}
	var arrivals workload.ArrivalProcess
	if a := sc.Workload.Arrival; a != nil {
		if arrivals, err = workload.ArrivalsByName(a.Process, a.Params); err != nil {
			return nil, err
		}
	}
	jobs := sc.Workload.Jobs
	if jobs <= 0 {
		jobs = defaultJobs
	}
	if sc.Workload.Clients > 0 {
		skew, err := workload.ParseSkew(sc.Workload.Skew)
		if err != nil {
			return nil, err
		}
		pop := &workload.Population{
			Clients: sc.Workload.Clients,
			Mix:     workload.SingleClass(class),
			Skew:    skew,
			Seed:    seed,
			Arrival: arrivals,
		}
		src, err := pop.Source()
		if err != nil {
			return nil, err
		}
		defer src.Close()
		return workload.Collect(src, jobs), nil
	}
	gen := workload.StandardGenerator(class)
	if arrivals != nil {
		gen.Arrivals = arrivals
	}
	return gen.Generate(jobs, rand.New(rand.NewSource(seed))), nil
}

// headerCopy returns a trace of copies of tr's job headers: the copies may
// be rescaled freely while their Tasks and Deps stay shared with tr.
func headerCopy(tr *workload.Trace) *workload.Trace {
	headers := make([]workload.Job, len(tr.Jobs))
	cp := &workload.Trace{Name: tr.Name, Jobs: make([]*workload.Job, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		headers[i] = *j
		cp.Jobs[i] = &headers[i]
	}
	return cp
}

// scaleToLoad rescales submission times so the offered load — total
// CPU-seconds of work divided by (cores × submission span) — hits the
// target. Stretching the span lowers load; compressing raises it. Traces
// whose span or work is zero are left untouched.
func scaleToLoad(tr *workload.Trace, target float64, totalCores int) {
	span := float64(tr.Span())
	if span <= 0 || totalCores <= 0 {
		return
	}
	work := 0.0
	for _, j := range tr.Jobs {
		work += j.TotalWork()
	}
	if work <= 0 {
		return
	}
	wantSpan := work / (float64(totalCores) * target)
	factor := wantSpan / span
	first := tr.Jobs[0].Submit
	for _, j := range tr.Jobs {
		if j.Submit < first {
			first = j.Submit
		}
	}
	for _, j := range tr.Jobs {
		j.Submit = first + sim.Time(float64(j.Submit-first)*factor)
	}
}
