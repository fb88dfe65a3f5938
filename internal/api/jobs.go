package api

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"atlarge"
	"atlarge/internal/exec"
)

// Job states.
const (
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// Job kinds. A sweep is a scenario sweep, submitted to POST /v1/jobs or run
// synchronously by POST /v1/scenario/sweep; a run is one experiment at one
// (seed, replicas), created by GET /v1/run and /v1/run/stream. The /v1/jobs
// resource model is kind-extensible — the submit body names the kind next
// to its spec — so future long-running work slots in without new routes.
const (
	jobKindSweep = "sweep"
	jobKindRun   = "run"
)

// jobStates enumerates the valid states for the /v1/jobs?state= filter.
var jobStates = []string{jobRunning, jobDone, jobFailed, jobCancelled}

// job is one unit of work in the server's table: a request creates it (or
// joins an existing one — the ID is the content hash of the work), the
// status/result/cancel endpoints observe and steer it, and with a state
// directory configured a sweep job survives server restarts. Progress
// counters stream in from the executor while the job runs.
type job struct {
	id     string
	kind   string
	name   string // the spec's name or the run's experiment, for humans listing jobs
	seed   int64  // a run's base seed, the seed of its RunDocument
	cancel context.CancelFunc

	// exited is closed when the goroutine running the job returns; nil for
	// jobs restored terminal from the state dir, which never run.
	exited chan struct{}

	mu      sync.Mutex
	state   string
	done    int
	total   int
	result  []byte                   // a sweep's report JSON, byte-identical to the sync response
	exp     atlarge.ExperimentResult // a run's result, set before the job reads done
	tasks   []string                 // a run's completed task IDs, replayed by streams
	errMsg  string
	spans   jobSpans      // incremental span aggregates for /v1/jobs/{id}/profile
	changed chan struct{} // closed at the next change watchers see; nil until watched

	// ephemeral marks a job no POST /v1/jobs submission holds: it lives only
	// while a request waits on it. The zero value is a held job. Guarded,
	// like waiters, by Server.jobMu.
	ephemeral bool
	waiters   int // requests waiting on the job
}

// jobSpans aggregates the executor task spans of one job incrementally —
// sums, maxima, and per-worker busy time only, so memory stays constant no
// matter how many tasks the job runs. Guarded by the owning job's mu.
type jobSpans struct {
	tasks   int
	cached  int
	failed  int
	waitNs  int64
	runNs   int64
	waitMax int64
	runMax  int64
	workers map[int]*workerSpan
}

// workerSpan is one pool worker's share of a job's execution.
type workerSpan struct {
	tasks  int
	busyNs int64
}

// observeSpan folds one task span into the job's aggregates; it has the
// SpanObserver signature.
func (j *job) observeSpan(_ int, _ string, span exec.TaskSpan, err error) {
	wait := int64(span.Start - span.Wait)
	run := int64(span.End - span.Start)
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &j.spans
	s.tasks++
	if span.Cached {
		s.cached++
	}
	if err != nil {
		s.failed++
	}
	s.waitNs += wait
	s.runNs += run
	if wait > s.waitMax {
		s.waitMax = wait
	}
	if run > s.runMax {
		s.runMax = run
	}
	if s.workers == nil {
		s.workers = make(map[int]*workerSpan)
	}
	ws := s.workers[span.Worker]
	if ws == nil {
		ws = &workerSpan{}
		s.workers[span.Worker] = ws
	}
	ws.tasks++
	ws.busyNs += run
}

// jobProfileDoc is the span summary of GET /v1/jobs/{id}/profile. All
// durations are milliseconds of wall-clock time.
type jobProfileDoc struct {
	Job   string `json:"job"`
	State string `json:"state"`
	Tasks struct {
		Observed int `json:"observed"`
		Cached   int `json:"cached"`
		Failed   int `json:"failed"`
	} `json:"tasks"`
	QueueWaitMs struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"queue_wait_ms"`
	RunMs struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"run_ms"`
	Workers []workerProfileDoc `json:"workers,omitempty"`
}

// workerProfileDoc is one worker's row in the profile document.
type workerProfileDoc struct {
	Worker int     `json:"worker"`
	Tasks  int     `json:"tasks"`
	BusyMs float64 `json:"busy_ms"`
}

// profileDoc snapshots the job's span aggregates.
func (j *job) profileDoc() jobProfileDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &j.spans
	d := jobProfileDoc{Job: j.id, State: j.state}
	d.Tasks.Observed = s.tasks
	d.Tasks.Cached = s.cached
	d.Tasks.Failed = s.failed
	if s.tasks > 0 {
		d.QueueWaitMs.Mean = float64(s.waitNs) / float64(s.tasks) / 1e6
		d.RunMs.Mean = float64(s.runNs) / float64(s.tasks) / 1e6
	}
	d.QueueWaitMs.Max = float64(s.waitMax) / 1e6
	d.RunMs.Max = float64(s.runMax) / 1e6
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ws := s.workers[id]
		d.Workers = append(d.Workers, workerProfileDoc{
			Worker: id, Tasks: ws.tasks, BusyMs: float64(ws.busyNs) / 1e6,
		})
	}
	return d
}

// progress records one streamed task completion. A run also logs the
// task's ID for streams to relay; it has at most maxReplicas tasks.
func (j *job) progress(done, total int, id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
	if j.kind == jobKindRun {
		j.tasks = append(j.tasks, id)
		j.signalLocked()
	}
}

// finish settles the job from its run outcome — a sweep's report bytes, or
// a run's result set by finishRun — and wakes its watchers; a cancelled job
// stays cancelled even if the runner surfaces the context error afterwards.
func (j *job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobRunning {
		return
	}
	j.signalLocked()
	if err != nil {
		j.state = jobFailed
		j.errMsg = err.Error()
		return
	}
	j.state = jobDone
	j.result = result
}

// finishRun settles a run job with its experiment's result.
func (j *job) finishRun(res atlarge.ExperimentResult, err error) {
	j.mu.Lock()
	j.exp = res
	j.mu.Unlock()
	j.finish(nil, err)
}

// markCancelled flips a running job to cancelled and fires its context.
func (j *job) markCancelled() {
	j.mu.Lock()
	running := j.state == jobRunning
	if running {
		j.state = jobCancelled
		j.signalLocked()
	}
	j.mu.Unlock()
	if running {
		j.cancel()
	}
}

// signalLocked wakes every watcher. Caller holds j.mu.
func (j *job) signalLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// watch blocks until the job settles or ctx is done, handing each task ID
// the job logs to each (when non-nil) — the ones already logged first, so a
// settled run replays its tasks. It returns nil once the job is done, and
// otherwise why it will never be.
func (j *job) watch(ctx context.Context, each func(id string)) error {
	seen := 0
	for {
		j.mu.Lock()
		tasks, state, errMsg := j.tasks[seen:], j.state, j.errMsg
		var changed chan struct{}
		if state == jobRunning {
			if j.changed == nil {
				j.changed = make(chan struct{})
			}
			changed = j.changed
		}
		j.mu.Unlock()
		seen += len(tasks)
		if each != nil {
			for _, id := range tasks {
				each(id)
			}
		}
		switch state {
		case jobDone:
			return nil
		case jobFailed:
			return errors.New(errMsg)
		case jobCancelled:
			return fmt.Errorf("job %s was cancelled", j.id)
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// currentState reads the job's state.
func (j *job) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// jobDoc is the uniform job resource of the /v1/jobs API.
type jobDoc struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	Links struct {
		Self   string `json:"self"`
		Result string `json:"result,omitempty"`
	} `json:"links"`
}

// doc snapshots the job as a /v1/jobs resource document.
func (j *job) doc() jobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := jobDoc{ID: j.id, Kind: j.kind, Name: j.name, State: j.state, Done: j.done, Total: j.total, Error: j.errMsg}
	d.Links.Self = "/v1/jobs/" + j.id
	if j.state == jobDone {
		d.Links.Result = "/v1/jobs/" + j.id + "/result"
	}
	return d
}

// resultBytes returns the finished report, or false while it is not ready.
func (j *job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobDone {
		return nil, false
	}
	return j.result, true
}
