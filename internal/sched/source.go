package sched

import (
	"cmp"
	"fmt"
	"slices"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// feedBatch is how many jobs each RunSource feed event schedules ahead of
// the simulation clock. Chunks always end on a submit-instant boundary so a
// dispatch cycle never sees a partial view of simultaneous arrivals.
const feedBatch = 256

// Run executes the trace to completion and returns the aggregate result. It
// is the RunSource path over a submit-ordered view of the trace, fed as one
// up-front batch: jobs are not cloned, and an unsorted trace is viewed
// through a stable sort by Submit, so simultaneous submissions keep their
// trace order as the FIFO tie-break. The trace is not mutated. On a
// simulator whose buffers an earlier run of at least as many jobs has
// grown, Run allocates the same few objects whatever the trace's size.
func (s *Simulator) Run() (*Result, error) {
	bySubmit := func(a, b *workload.Job) int { return cmp.Compare(a.Submit, b.Submit) }
	jobs := s.trace.Jobs
	if !slices.IsSortedFunc(jobs, bySubmit) {
		jobs = slices.Clone(jobs)
		slices.SortStableFunc(jobs, bySubmit)
	}
	i := 0
	return s.run(func() *workload.Job {
		if i == len(jobs) {
			return nil
		}
		i++
		return jobs[i-1]
	}, len(jobs))
}

// RunSource executes the simulation against a pull-based job stream instead
// of a materialized trace: arrivals are fed in feedBatch chunks and each job
// is cloned out of the source's scratch storage, so resident memory is
// proportional to in-flight jobs — independent of how many jobs the source
// emits: the arrival FIFO holds at most a chunk, and job and task states
// return to their arenas as jobs finish; cloning is the only allocation
// per job. The source must emit jobs in non-decreasing Submit order (the
// JobSource contract); RunSource does not Close it.
//
// For a submit-ordered stream the simulation is event-for-event the run Run
// executes on the materialized equivalent.
func (s *Simulator) RunSource(src workload.JobSource) (*Result, error) {
	return s.run(func() *workload.Job {
		if j := src.Next(); j != nil {
			return j.Clone()
		}
		return nil
	}, feedBatch)
}

// feeder is the arrival cursor of a run: the job stream, the reusable batch
// buffer, the first job of the next chunk, and the FIFO of fed jobs whose
// arrivals have not fired yet.
type feeder struct {
	next  func() *workload.Job
	chunk int
	carry *workload.Job
	batch []sim.BatchEvent
	last  sim.Time // newest submit fed so far (monotonicity guard)
	err   error

	// arrivals[head:] are the fed jobs in feed order. Arrivals are fed in
	// non-decreasing time with increasing sequence numbers, and a chunk is
	// only fed once every arrival of the one before has fired, so they fire
	// in feed order: each job-arrive event pops the head. The array is kept
	// across chunks and runs.
	arrivals []arrival
	head     int
}

// arrival is a fed job and its run bookkeeping.
type arrival struct {
	job *workload.Job
	js  *jobState
}

// pop takes the job whose arrival fires now. A drained FIFO starts over at
// the front of its array.
func (f *feeder) pop() arrival {
	a := f.arrivals[f.head]
	f.arrivals[f.head] = arrival{}
	if f.head++; f.head == len(f.arrivals) {
		f.arrivals, f.head = f.arrivals[:0], 0
	}
	return a
}

// feedChunk pulls the next chunk of jobs, schedules their arrivals, and — if
// the stream continues — schedules itself at the chunk's final submit
// instant. A chunk only ends once the next job's submit time strictly
// advances, so all arrivals sharing an instant land in one batch; the feed
// event then fires after those arrivals but before their dispatch cycle (its
// sequence number predates the dispatch event's), keeping the event order
// identical to feeding the whole stream up front. Every arrival shares the
// simulator's one onArrive handler, and job states come from the reused
// job arena, so feeding allocates nothing per job.
func (s *Simulator) feedChunk() {
	f := &s.feed
	buf := f.batch[:0]
	j := f.carry
	f.carry = nil
	if j == nil {
		j = f.next()
	}
	for j != nil {
		if j.Submit < f.last {
			f.err = fmt.Errorf("sched: job source emitted submit %v after %v (must be non-decreasing)", j.Submit, f.last)
			s.k.Stop()
			return
		}
		cp, err := j.CheckDAG(&s.dag)
		if err != nil {
			f.err = fmt.Errorf("sched: %w", err)
			s.k.Stop()
			return
		}
		if len(buf) >= f.chunk && j.Submit > f.last {
			f.carry = j
			break
		}
		f.last = j.Submit
		ref := s.jobs.alloc()
		js := s.jobs.at(ref)
		*js = jobState{left: len(j.Tasks), cp: cp, bit: jobBit(j.ID), ref: ref}
		f.arrivals = append(f.arrivals, arrival{job: j, js: js})
		buf = append(buf, sim.BatchEvent{At: j.Submit, Name: "job-arrive", Fn: s.onArrive})
		j = f.next()
	}
	f.batch = buf // keep the backing array for the next chunk
	if len(buf) == 0 {
		return
	}
	s.k.AtBatch(buf)
	if f.carry == nil {
		// The stream is drained: let go of it and of the batch's handlers.
		// The FIFO stays until its arrivals have fired.
		f.drop()
		return
	}
	s.k.At(f.last, "feed", s.onFeed)
}

// drop lets go of the stream and of the handlers in the batch buffer,
// keeping the buffer's array for the next run. The FIFO is kept as is.
func (f *feeder) drop() {
	b := f.batch[:cap(f.batch)]
	clear(b)
	*f = feeder{batch: b[:0], arrivals: f.arrivals, head: f.head}
}

// forget empties the FIFO, so a stopped run's unfired arrivals keep no job
// reachable, keeping its array.
func (f *feeder) forget() {
	clear(f.arrivals)
	f.arrivals, f.head = f.arrivals[:0], 0
}

// aggregate folds per-job stats and the utilization series into the scalar
// Result fields as the run goes, so no per-job state outlives its job.
type aggregate struct {
	count       int
	sumSd       float64
	sumResp     float64
	sumWait     float64
	misses      int
	firstSet    bool
	firstSubmit sim.Time
	lastFinish  sim.Time

	// Time-weighted mean of the piecewise-constant utilization signal:
	// each sample holds from utilAt on, integrated since utilT0.
	utilInit bool
	utilT0   sim.Time
	utilAt   sim.Time
	utilV    float64
	utilArea float64
}

func (a *aggregate) add(js JobStats) {
	a.count++
	a.sumSd += js.Slowdown
	a.sumResp += float64(js.Response)
	a.sumWait += float64(js.Wait)
	if !js.DeadlineMet {
		a.misses++
	}
	if !a.firstSet || js.Submit < a.firstSubmit {
		a.firstSet = true
		a.firstSubmit = js.Submit
	}
	if js.Finish > a.lastFinish {
		a.lastFinish = js.Finish
	}
}

func (a *aggregate) recordUtil(now sim.Time, v float64) {
	if !a.utilInit {
		a.utilInit = true
		a.utilT0, a.utilAt, a.utilV = now, now, v
		return
	}
	a.utilArea += a.utilV * float64(now-a.utilAt)
	a.utilAt, a.utilV = now, v
}

func (a *aggregate) result(policy string, horizon sim.Time) *Result {
	res := &Result{Policy: policy, Completed: a.count, Horizon: horizon}
	if a.count == 0 {
		return res
	}
	n := float64(a.count)
	res.Makespan = a.lastFinish - a.firstSubmit
	res.MeanSlowdown = a.sumSd / n
	res.MeanResponse = a.sumResp / n
	res.MeanWait = a.sumWait / n
	res.DeadlineMisses = a.misses
	if a.utilInit && horizon > a.utilT0 {
		res.UtilizationMean = (a.utilArea + a.utilV*float64(horizon-a.utilAt)) / float64(horizon-a.utilT0)
	}
	return res
}
