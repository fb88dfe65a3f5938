package workload

import (
	"fmt"
	"math/rand"

	"atlarge/internal/sim"
)

// JobSource is a pull-based stream of jobs in non-decreasing Submit order.
// It is the O(1)-per-job interface between workload generation and its
// consumers: a million-job workload never has to exist in memory at once.
type JobSource interface {
	// Next returns the next job, or nil when the stream is exhausted. The
	// returned Job — including its Tasks and their Deps — is owned by the
	// source and is invalidated by the following Next or Close call; retain
	// it with Job.Clone.
	Next() *Job
	// Name describes the stream; Collect uses it as the Trace name.
	Name() string
	// Close releases the source's resources. It is idempotent; Next must
	// not be called after Close.
	Close()
}

// Collect materializes up to max jobs from src into a Trace, cloning each
// streamed job; max <= 0 drains the source. Collect(g.Source(n, r), n)
// reproduces g.Generate(n, r) exactly; over a Population source it takes a
// bounded prefix of an unbounded stream.
//
// The clones equal Job.Clone's, but they are carved out of chunked arenas
// of jobs, tasks and deps, so collecting n jobs allocates O(log n) objects.
// Each job's Tasks and each task's Deps are capped at their length: a
// caller's append copies them instead of writing into a neighbouring job.
func Collect(src JobSource, max int) *Trace {
	tr := &Trace{Name: src.Name()}
	var a cloneArena
	for max <= 0 || len(tr.Jobs) < max {
		j := src.Next()
		if j == nil {
			break
		}
		if tr.Jobs == nil {
			hint := max
			if hint <= 0 || hint > 1<<16 {
				hint = 1 << 16
			}
			tr.Jobs = make([]*Job, 0, hint)
		}
		tr.Jobs = append(tr.Jobs, a.clone(j, len(tr.Jobs), max))
	}
	return tr
}

// Source returns a finite JobSource that emits exactly the jobs Generate
// produces with the same RNG: arrival times are drawn eagerly up front (the
// historical draw order), job bodies lazily on each Next against a reused
// scratch job.
func (g Generator) Source(n int, r *rand.Rand) JobSource {
	return &generatorSource{gen: g, times: g.Arrivals.Times(n, r), r: r}
}

type generatorSource struct {
	gen    Generator
	times  []sim.Time
	r      *rand.Rand
	i      int
	taskID int
	job    Job
	sc     genScratch
}

func (s *generatorSource) Next() *Job {
	if s.i >= len(s.times) {
		return nil
	}
	s.job.Submit = s.times[s.i]
	s.job.Class = s.gen.Class
	s.gen.fillJob(&s.job, s.r, &s.sc)
	s.i++
	emitAs(&s.job, s.i, s.taskID)
	s.taskID += len(s.job.Tasks)
	return &s.job
}

// emitAs assigns a filled job its global identity in the stream: job ID,
// task IDs starting after base, and dep references rebased likewise.
func emitAs(job *Job, id, base int) {
	job.ID = id
	for i := range job.Tasks {
		t := &job.Tasks[i]
		t.JobID = id
		t.ID += base
		for d := range t.Deps {
			t.Deps[d] += base
		}
	}
}

func (s *generatorSource) Name() string {
	return fmt.Sprintf("%s-%s", s.gen.Class, s.gen.Arrivals)
}

func (s *generatorSource) Close() {}

// Source adapts a materialized trace to the JobSource interface. Jobs are
// emitted by reference in slice order (callers wanting submit order should
// SortBySubmit first); unlike generated sources the jobs survive Next, but
// consumers should not rely on that.
func (tr *Trace) Source() JobSource {
	return &traceSource{tr: tr}
}

type traceSource struct {
	tr *Trace
	i  int
}

func (s *traceSource) Next() *Job {
	if s.i >= len(s.tr.Jobs) {
		return nil
	}
	j := s.tr.Jobs[s.i]
	s.i++
	return j
}

func (s *traceSource) Name() string { return s.tr.Name }

func (s *traceSource) Close() {}
