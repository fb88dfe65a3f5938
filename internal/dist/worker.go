package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"atlarge/internal/exec"
)

// defaultHeartbeat is the worker's heartbeat cadence when the claim does not
// ask for one.
const defaultHeartbeat = time.Second

// Builder resolves a job document into the executable plan of raw-JSON
// tasks. It must be deterministic: the same job yields the same task IDs in
// the same order on every worker and on the dispatcher, or result indices
// would disagree across processes. The worker calls it once per claim.
type Builder func(job Job) (*exec.Plan[json.RawMessage], error)

// Worker serves the dist protocol: a versioned handshake plus the claim
// endpoint that executes the listed tasks and streams results back as NDJSON.
// One Worker handles any number of concurrent claims; each claim runs on its
// own bounded local pool.
type Worker struct {
	// Build maps job kinds to plan builders (see Builder). Claims for an
	// unregistered kind are refused.
	Build map[string]Builder
	// Parallelism bounds each claim's local pool; <= 0 accepts the claim's
	// hint, falling back to GOMAXPROCS.
	Parallelism int
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/handshake", w.handleHandshake)
	mux.HandleFunc("POST /v1/tasks:claim", w.handleClaim)
	return mux
}

func (w *Worker) handleHandshake(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	raw, _ := json.Marshal(Handshake{
		Service:     HandshakeService,
		Protocol:    ProtocolVersion,
		Parallelism: max(w.Parallelism, 0),
		Procs:       runtime.GOMAXPROCS(0),
	})
	rw.Write(append(raw, '\n'))
}

// claimError refuses a claim before any task runs: a JSON error body with a
// non-200 status, so dispatch-time mistakes (bad task list, unknown kind,
// protocol skew) are not conflated with mid-stream worker death.
func claimError(rw http.ResponseWriter, status int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	raw, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	rw.Write(append(raw, '\n'))
}

// checkTasks refuses a task list that is empty, unsorted or repeats an
// index; the bounds need the plan and are checked after the build.
func checkTasks(tasks []int) error {
	if len(tasks) == 0 {
		return errors.New("claim lists no tasks")
	}
	for k := 1; k < len(tasks); k++ {
		switch {
		case tasks[k] == tasks[k-1]:
			return fmt.Errorf("claim lists task %d twice", tasks[k])
		case tasks[k] < tasks[k-1]:
			return fmt.Errorf("claim task list is not ascending: %d follows %d", tasks[k], tasks[k-1])
		}
	}
	return nil
}

func (w *Worker) handleClaim(rw http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxLineBytes))
	if err := dec.Decode(&req); err != nil {
		claimError(rw, http.StatusBadRequest, "bad claim body: %v", err)
		return
	}
	if req.Protocol != ProtocolVersion {
		claimError(rw, http.StatusBadRequest,
			"protocol mismatch: claim speaks %d, this worker speaks %d", req.Protocol, ProtocolVersion)
		return
	}
	build, ok := w.Build[req.Job.Kind]
	if !ok {
		claimError(rw, http.StatusBadRequest, "unknown job kind %q", req.Job.Kind)
		return
	}
	if err := checkTasks(req.Tasks); err != nil {
		claimError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	plan, err := build(req.Job)
	if err != nil {
		claimError(rw, http.StatusBadRequest, "build plan: %v", err)
		return
	}
	// The list ascends, so its ends bound every index.
	for _, i := range []int{req.Tasks[0], req.Tasks[len(req.Tasks)-1]} {
		if i < 0 || i >= plan.Len() {
			claimError(rw, http.StatusBadRequest, "task index %d outside the %d-task plan", i, plan.Len())
			return
		}
	}

	// The claimed sub-plan, each sub-task remembering its index in the
	// job's full plan.
	indices := req.Tasks
	sub := &exec.Plan[json.RawMessage]{Tasks: make([]exec.Task[json.RawMessage], len(indices))}
	for k, i := range indices {
		sub.Tasks[k] = plan.Tasks[i]
	}

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	var mu sync.Mutex // one writer at a time: results vs heartbeats
	mw := newMsgWriter(rw, func() {
		if flusher != nil {
			flusher.Flush()
		}
	})
	write := func(m *Message) error {
		mu.Lock()
		defer mu.Unlock()
		return mw.Write(m)
	}
	if err := write(&Message{Type: MsgClaim, Tasks: sub.Len()}); err != nil {
		return
	}

	// Heartbeats ride the same stream while tasks run, so a dispatcher
	// waiting on a slow task can tell "still working" from "worker died".
	heartbeat := defaultHeartbeat
	if req.HeartbeatMillis > 0 {
		heartbeat = time.Duration(req.HeartbeatMillis) * time.Millisecond
	}
	hbCtx, stopHB := context.WithCancel(r.Context())
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if write(&Message{Type: MsgHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	workers := w.Parallelism
	if workers <= 0 {
		workers = req.Parallel
	}
	completed := 0
	for ev := range exec.Stream(r.Context(), sub, exec.Options[json.RawMessage]{Workers: workers}) {
		index := indices[ev.Index]
		m := &Message{Index: index, ID: ev.ID}
		switch {
		case ev.Skipped:
			// The client hung up (request context cancelled): the stream is
			// dead anyway, so there is nothing useful to write.
			continue
		case ev.Err != nil:
			m.Type = MsgError
			m.Error = ev.Err.Error()
		default:
			m.Type = MsgResult
			m.Result = ev.Result
		}
		if write(m) != nil {
			// Broken pipe: drain the pool via the request context (the
			// server cancels it when the connection drops) and give up.
			continue
		}
		completed++
	}
	stopHB()
	hbDone.Wait()
	write(&Message{Type: MsgDone, Completed: completed})
}
