// Package exec is the unified streaming execution engine of the atlarge
// harness: a deterministic work-plan executor shared by the experiment
// runner, the scenario engine, and the serve API.
//
// A Plan is an ordered list of Tasks. Stream executes the plan on a bounded
// worker pool and emits one Event per task over a channel as tasks finish
// (completion order), so callers can render live progress, aggregate
// incrementally with memory bounded by what they retain — the executor holds
// no results — and cancel mid-plan through the context. Events carry the
// task's position in the plan, so positional collection reproduces the
// sequential result layout byte-identically at any parallelism level.
//
// A Cache plugs checkpoint/resume underneath any plan: completed task
// results are stored as they finish and served back (Event.Cached) on a
// rerun, without the task executing again.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work in a Plan: a stable identifier (also the
// checkpoint key) and the function that produces its result. Run receives
// the plan's context so cooperative tasks can honour cancellation.
type Task[R any] struct {
	ID  string
	Run func(ctx context.Context) (R, error)
}

// Plan is an ordered set of tasks; the order defines Event.Index and thereby
// the positional result layout consumers rebuild.
type Plan[R any] struct {
	Tasks []Task[R]
}

// Add appends one task to the plan.
func (p *Plan[R]) Add(id string, run func(ctx context.Context) (R, error)) {
	p.Tasks = append(p.Tasks, Task[R]{ID: id, Run: run})
}

// Len returns the number of tasks in the plan.
func (p *Plan[R]) Len() int { return len(p.Tasks) }

// Event is one task completion streamed out of the executor.
type Event[R any] struct {
	// Index is the task's position in the plan.
	Index int
	// ID is the task's stable identifier.
	ID string
	// Result is the task's output; the zero value when Err is set.
	Result R
	// Err is the task's failure, or the plan context's error for tasks
	// skipped after cancellation.
	Err error
	// Skipped marks a task that never ran because the context was done.
	Skipped bool
	// Cached marks a result served from the plan's Cache without running.
	Cached bool
	// Elapsed is the task's wall-clock run time; zero for skipped and
	// cached tasks.
	Elapsed time.Duration
	// Span is the task's execution timeline, recorded only when
	// Options.Spans is set; nil otherwise and for skipped tasks.
	Span *TaskSpan
}

// TaskSpan is the wall-clock timeline of one task relative to the plan's
// start (the moment Stream was called). Wait is the queue time before the
// task was picked up; Start..End brackets the cache lookup plus run. All
// offsets come from one monotonic epoch, so spans from different workers
// order consistently on a shared timeline.
type TaskSpan struct {
	// Worker is the index (0-based) of the pool worker that settled the task.
	Worker int
	// Cached marks a span that was served from the cache instead of running.
	Cached bool
	// Wait is the offset at which the worker claimed the task.
	Wait time.Duration
	// Start is the offset at which execution (or the cache hit) began.
	Start time.Duration
	// End is the offset at which the task settled.
	End time.Duration
}

// Cache persists completed task results across plan executions (see the
// scenario engine's checkpoint directories). Load returns a previously
// stored result for a task ID; Store records one. Implementations must be
// safe for concurrent use; Store failures are the implementation's to
// surface (the executor treats storage as best-effort durability).
type Cache[R any] interface {
	Load(id string) (R, bool)
	Store(id string, r R)
}

// Stats aggregates live queue-depth counters, optionally shared across many
// concurrent plan executions: the serve layer hands every plan the same
// Stats so admission control and /metrics observe the total pending-task
// backlog of the process, not one plan's. All methods are safe for
// concurrent use; the zero value is ready.
type Stats struct {
	pending   atomic.Int64
	running   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// Pending is the number of accepted tasks not yet settled — queued or
// running. This is the backpressure signal: a pool that cannot drain keeps
// Pending high.
func (s *Stats) Pending() int64 { return s.pending.Load() }

// Running is the number of tasks currently executing (not queued, cached,
// or skipped).
func (s *Stats) Running() int64 { return s.running.Load() }

// Completed counts tasks that produced a result — live runs and cache hits —
// monotonically across all plans sharing the Stats.
func (s *Stats) Completed() int64 { return s.completed.Load() }

// Failed counts tasks that returned an error (skips under a cancelled
// context are neither completed nor failed).
func (s *Stats) Failed() int64 { return s.failed.Load() }

// Enqueue adds n tasks to the pending backlog. Stream calls it for the whole
// plan up front; alternative executors behind a StreamFunc must do the same
// so admission control sees their backlog too.
func (s *Stats) Enqueue(n int) { s.pending.Add(int64(n)) }

// Settle accounts one task leaving the backlog: a skip is neither completed
// nor failed, a failure increments Failed, everything else Completed.
func (s *Stats) Settle(skipped, failed bool) {
	s.pending.Add(-1)
	switch {
	case skipped:
	case failed:
		s.failed.Add(1)
	default:
		s.completed.Add(1)
	}
}

// Options tunes one plan execution.
type Options[R any] struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS (clamped to the plan
	// size).
	Workers int
	// Cache, when non-nil, is consulted before each task runs and updated
	// after each success.
	Cache Cache[R]
	// Stats, when non-nil, receives live queue counters: the whole plan is
	// added to Pending up front, and every event settles one task.
	Stats *Stats
	// Spans, when set, records a TaskSpan on every non-skipped event. Off by
	// default so the plain path makes no clock reads beyond Elapsed.
	Spans bool
}

// StreamFunc is the execution seam: anything with Stream's shape — exactly
// one Event per plan task, positionally indexed, channel closed when all are
// accounted for — can stand in for the in-process pool. The distributed
// dispatcher (internal/dist) implements this to fan a plan out across worker
// processes; because collection is positional, substituting the executor
// cannot change output bytes.
type StreamFunc[R any] func(ctx context.Context, p *Plan[R], opt Options[R]) <-chan Event[R]

// Stream executes the plan and returns the event channel. Exactly one Event
// is emitted per task — results, failures, cache hits, and (after
// cancellation) skips — and the channel closes once all tasks are accounted
// for. Tasks are claimed in plan order, so Workers == 1 executes the plan
// sequentially front to back.
//
// Cancellation is cooperative: when ctx is done, unclaimed tasks are skipped
// with ctx's error and in-flight tasks are expected to return (their Run
// receives ctx). The caller must drain the channel until it closes; after
// cancelling, draining is cheap because remaining tasks skip.
func Stream[R any](ctx context.Context, p *Plan[R], opt Options[R]) <-chan Event[R] {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.Tasks) {
		workers = len(p.Tasks)
	}
	out := make(chan Event[R])
	if len(p.Tasks) == 0 {
		close(out)
		return out
	}
	if opt.Stats != nil {
		opt.Stats.Enqueue(len(p.Tasks))
	}
	var epoch time.Time
	if opt.Spans {
		epoch = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.Tasks) {
					return
				}
				ev := runTask(ctx, &p.Tasks[i], i, worker, epoch, opt.Cache, opt.Stats)
				if opt.Stats != nil {
					opt.Stats.Settle(ev.Skipped, ev.Err != nil && !ev.Skipped)
				}
				out <- ev
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runTask produces the event for one task: a skip under a done context, a
// cache hit, or a live run (stored back into the cache on success). A zero
// epoch means span recording is off.
func runTask[R any](ctx context.Context, t *Task[R], index, worker int, epoch time.Time, cache Cache[R], stats *Stats) Event[R] {
	ev := Event[R]{Index: index, ID: t.ID}
	if err := ctx.Err(); err != nil {
		ev.Err = err
		ev.Skipped = true
		return ev
	}
	var sp *TaskSpan
	if !epoch.IsZero() {
		sp = &TaskSpan{Worker: worker, Wait: time.Since(epoch)}
		sp.Start = sp.Wait
		defer func() { sp.End = time.Since(epoch) }()
		ev.Span = sp
	}
	if cache != nil {
		if r, ok := cache.Load(t.ID); ok {
			ev.Result = r
			ev.Cached = true
			if sp != nil {
				sp.Cached = true
			}
			return ev
		}
	}
	if stats != nil {
		stats.running.Add(1)
		defer stats.running.Add(-1)
	}
	start := time.Now()
	if sp != nil {
		sp.Start = time.Since(epoch)
	}
	ev.Result, ev.Err = runRecovered(ctx, t)
	ev.Elapsed = time.Since(start)
	if ev.Err == nil && cache != nil {
		cache.Store(t.ID, ev.Result)
	}
	return ev
}

// PanicError is a task's panic, recovered by the executor and settled as
// that task's error: one failing task never takes the other tasks — or the
// process serving them — down with it.
type PanicError struct {
	// Task is the ID of the task that panicked.
	Task string
	// Value is what the task panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: task %s panicked: %v", e.Task, e.Value)
}

// runRecovered runs one task, turning a panic into a *PanicError (the
// result stays the zero value: t.Run never returned it).
func runRecovered[R any](ctx context.Context, t *Task[R]) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Task: t.ID, Value: v, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}

// Collect drains a plan's event stream into positional result and error
// slices (index = plan order), the layout sequential execution would have
// produced. It returns once the stream closes; with a cancelled context the
// error slice carries the context error at every unfinished position. each
// is an optional per-event observer (progress lines), invoked from the
// draining goroutine in completion order.
func Collect[R any](events <-chan Event[R], n int, each func(Event[R])) ([]R, []error) {
	results := make([]R, n)
	errs := make([]error, n)
	for ev := range events {
		results[ev.Index] = ev.Result
		errs[ev.Index] = ev.Err
		if each != nil {
			each(ev)
		}
	}
	return results, errs
}

// Run is Stream + Collect: execute the plan, return positional results and
// per-task errors.
func Run[R any](ctx context.Context, p *Plan[R], opt Options[R]) ([]R, []error) {
	return Collect(Stream(ctx, p, opt), p.Len(), nil)
}
