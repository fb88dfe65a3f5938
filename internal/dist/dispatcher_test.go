package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"atlarge/internal/exec"
)

// testJob describes the synthetic plan both sides of these tests build: n
// tasks named "task-<i>", each returning {"i": i}, with the listed indices
// failing instead.
type testJob struct {
	N    int   `json:"n"`
	Fail []int `json:"fail,omitempty"`
}

type testResult struct {
	I int `json:"i"`
}

// testBuilder is the worker-side plan builder for testJob documents.
func testBuilder(j Job) (*exec.Plan[json.RawMessage], error) {
	var tj testJob
	if err := json.Unmarshal(j.Spec, &tj); err != nil {
		return nil, err
	}
	failing := make(map[int]bool)
	for _, i := range tj.Fail {
		failing[i] = true
	}
	plan := &exec.Plan[json.RawMessage]{}
	for i := 0; i < tj.N; i++ {
		plan.Add(fmt.Sprintf("task-%d", i), func(context.Context) (json.RawMessage, error) {
			if failing[i] {
				return nil, fmt.Errorf("boom-%d", i)
			}
			return json.Marshal(testResult{I: i})
		})
	}
	return plan, nil
}

// dispatchPlan is the dispatcher-side view of the same job: matching IDs,
// Run funcs never invoked (the work happens on the workers).
func dispatchPlan(n int) *exec.Plan[testResult] {
	plan := &exec.Plan[testResult]{}
	for i := 0; i < n; i++ {
		plan.Add(fmt.Sprintf("task-%d", i), nil)
	}
	return plan
}

// startWorkers boots k in-process protocol workers and dials them.
func startWorkers(t *testing.T, k int) []*Client {
	t.Helper()
	clients := make([]*Client, k)
	for i := range clients {
		w := &Worker{Build: map[string]Builder{"test": testBuilder}, Parallelism: 2}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		c, err := Dial(context.Background(), srv.URL)
		if err != nil {
			t.Fatalf("dial worker %d: %v", i, err)
		}
		clients[i] = c
	}
	return clients
}

func mustJob(t *testing.T, tj testJob) Job {
	t.Helper()
	raw, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	return Job{Kind: "test", Spec: raw, Seed: 1, Replicas: 1}
}

// checkResults asserts positional results: every index present exactly once
// with the right payload (the events channel closing after n events is the
// exactly-once half; the payload check is the no-mixup half).
func checkResults(t *testing.T, results []testResult, errs []error) {
	t.Helper()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("task %d: unexpected error %v", i, errs[i])
		}
		if results[i].I != i {
			t.Fatalf("task %d carries payload %d", i, results[i].I)
		}
	}
}

// TestDispatcherParity: dispatching over 1 and 3 workers yields the same
// positional results as running in process, with the exec and dist stats
// threaded correctly.
func TestDispatcherParity(t *testing.T) {
	const n = 23
	for _, workers := range []int{1, 3} {
		clients := startWorkers(t, workers)
		dstats := &Stats{}
		d, err := NewDispatcher[testResult](clients, DispatchOptions{
			Job:   mustJob(t, testJob{N: n}),
			Stats: dstats,
		})
		if err != nil {
			t.Fatal(err)
		}
		estats := &exec.Stats{}
		plan := dispatchPlan(n)
		results, errs := exec.Collect(d.Stream(context.Background(), plan, exec.Options[testResult]{Stats: estats}), n, nil)
		checkResults(t, results, errs)
		if got := estats.Completed(); got != n {
			t.Errorf("%d workers: exec stats completed = %d, want %d", workers, got, n)
		}
		if got := estats.Pending(); got != 0 {
			t.Errorf("%d workers: exec stats pending = %d after drain", workers, got)
		}
		if got := dstats.InFlight(); got != 0 {
			t.Errorf("%d workers: dist in-flight = %d after drain", workers, got)
		}
		if got := dstats.Redispatched(); got != 0 {
			t.Errorf("%d workers: redispatched = %d on a healthy run", workers, got)
		}
		var sum int64
		for _, wc := range dstats.WorkerCompletions() {
			sum += wc.Tasks
		}
		if sum != n {
			t.Errorf("%d workers: per-worker completions sum to %d, want %d", workers, sum, n)
		}
	}
}

// TestDispatcherTaskErrors: a task failure on the worker travels back as that
// task's error, verbatim, without disturbing its neighbors.
func TestDispatcherTaskErrors(t *testing.T) {
	const n = 8
	clients := startWorkers(t, 2)
	estats := &exec.Stats{}
	d, err := NewDispatcher[testResult](clients, DispatchOptions{
		Job: mustJob(t, testJob{N: n, Fail: []int{2, 5}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{Stats: estats}), n, nil)
	for i := 0; i < n; i++ {
		if i == 2 || i == 5 {
			if errs[i] == nil || errs[i].Error() != fmt.Sprintf("boom-%d", i) {
				t.Errorf("task %d error = %v, want boom-%d", i, errs[i], i)
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("task %d: unexpected error %v", i, errs[i])
		}
		if results[i].I != i {
			t.Errorf("task %d carries payload %d", i, results[i].I)
		}
	}
	if got := estats.Failed(); got != 2 {
		t.Errorf("exec stats failed = %d, want 2", got)
	}
	if got := estats.Completed(); got != n-2 {
		t.Errorf("exec stats completed = %d, want %d", got, n-2)
	}
}

// flakyWorker speaks the protocol but dies mid-claim: it streams `limit`
// genuine results, then aborts the connection — the shape of a worker
// process killed mid-claim. record, when non-nil, sees each claim's tasks.
func flakyWorker(t *testing.T, limit int, record func([]int)) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/handshake", func(rw http.ResponseWriter, r *http.Request) {
		raw, _ := json.Marshal(Handshake{Service: HandshakeService, Protocol: ProtocolVersion})
		rw.Write(append(raw, '\n'))
	})
	mux.HandleFunc("POST /v1/tasks:claim", func(rw http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			panic(http.ErrAbortHandler)
		}
		plan, err := testBuilder(req.Job)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		if record != nil {
			record(req.Tasks)
		}
		flusher, _ := rw.(http.Flusher)
		mw := newMsgWriter(rw, func() { flusher.Flush() })
		mw.Write(&Message{Type: MsgClaim})
		sent := 0
		for _, i := range req.Tasks {
			if sent == limit {
				break
			}
			res, rerr := plan.Tasks[i].Run(r.Context())
			m := &Message{Index: i, ID: plan.Tasks[i].ID}
			if rerr != nil {
				m.Type = MsgError
				m.Error = rerr.Error()
			} else {
				m.Type = MsgResult
				m.Result = res
			}
			mw.Write(m)
			sent++
		}
		panic(http.ErrAbortHandler) // die without the done line
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDispatcherRedispatchOnWorkerDeath: a worker that keeps dying mid-claim
// costs only re-dispatches — the results it did deliver are kept, the rest
// re-run elsewhere, and nothing is dropped or duplicated.
func TestDispatcherRedispatchOnWorkerDeath(t *testing.T) {
	const n = 30
	clients := append(startWorkers(t, 1), flakyWorker(t, 2, nil))
	dstats := &Stats{}
	d, err := NewDispatcher[testResult](clients, DispatchOptions{
		Job:   mustJob(t, testJob{N: n}),
		Stats: dstats,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{}), n, nil)
	checkResults(t, results, errs)
	if dstats.Redispatched() == 0 {
		t.Error("flaky worker died mid-claim but nothing was re-dispatched")
	}
	if dstats.InFlight() != 0 {
		t.Errorf("dist in-flight = %d after drain", dstats.InFlight())
	}
}

// hungWorker accepts a claim and then goes silent — no results, no
// heartbeats — until the peer hangs up. Only the lease can unmask it.
func hungWorker(t *testing.T) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/handshake", func(rw http.ResponseWriter, r *http.Request) {
		raw, _ := json.Marshal(Handshake{Service: HandshakeService, Protocol: ProtocolVersion})
		rw.Write(append(raw, '\n'))
	})
	mux.HandleFunc("POST /v1/tasks:claim", func(rw http.ResponseWriter, r *http.Request) {
		flusher, _ := rw.(http.Flusher)
		mw := newMsgWriter(rw, func() { flusher.Flush() })
		mw.Write(&Message{Type: MsgClaim})
		<-r.Context().Done()
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDispatcherLeaseExpiry: a hung worker (silent stream, no heartbeats) is
// abandoned after one lease of silence and its claim re-dispatched; the sweep
// still completes with every result exactly once.
func TestDispatcherLeaseExpiry(t *testing.T) {
	const n = 12
	clients := append(startWorkers(t, 1), hungWorker(t))
	dstats := &Stats{}
	d, err := NewDispatcher[testResult](clients, DispatchOptions{
		Job:   mustJob(t, testJob{N: n}),
		Lease: 150 * time.Millisecond,
		Stats: dstats,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{}), n, nil)
	checkResults(t, results, errs)
	if dstats.Redispatched() == 0 {
		t.Error("hung worker held a claim but nothing was re-dispatched")
	}
	// Three failure cycles at a 150ms lease plus backoff is ~1s; a run
	// anywhere near DefaultLease means the configured lease was ignored.
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("lease-expiry run took %v", el)
	}
}

// TestDispatcherIdentityMismatch: a worker whose plan disagrees with the
// dispatcher's (version skew) is rejected per line, and with no healthy
// worker left the tasks settle with errors instead of wrong results.
func TestDispatcherIdentityMismatch(t *testing.T) {
	const n = 4
	// The worker builds a plan of different task IDs for the same kind.
	w := &Worker{Build: map[string]Builder{"test": func(j Job) (*exec.Plan[json.RawMessage], error) {
		plan := &exec.Plan[json.RawMessage]{}
		for i := 0; i < n; i++ {
			plan.Add(fmt.Sprintf("other-%d", i), func(context.Context) (json.RawMessage, error) {
				return json.RawMessage(`{"i":0}`), nil
			})
		}
		return plan, nil
	}}}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	dstats := &Stats{}
	d, err := NewDispatcher[testResult](([]*Client{c}), DispatchOptions{
		Job:   mustJob(t, testJob{N: n}),
		Stats: dstats,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{}), n, nil)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("task %d settled without error despite identity mismatch", i)
		}
	}
}

// TestDispatcherCache: cached tasks are served without touching any worker,
// and fresh results are stored back — the shared content-addressed result
// cache across processes.
func TestDispatcherCache(t *testing.T) {
	const n = 10
	cache := &mapCache{m: make(map[string]testResult)}
	for i := 0; i < n; i += 2 {
		cache.m[fmt.Sprintf("task-%d", i)] = testResult{I: i}
	}
	clients := startWorkers(t, 1)
	d, err := NewDispatcher[testResult](clients, DispatchOptions{Job: mustJob(t, testJob{N: n})})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	results, errs := exec.Collect(
		d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{Cache: cache}),
		n, func(ev exec.Event[testResult]) {
			if ev.Cached {
				cached++
			}
		})
	checkResults(t, results, errs)
	if cached != n/2 {
		t.Errorf("cached events = %d, want %d", cached, n/2)
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if len(cache.m) != n {
		t.Errorf("cache holds %d entries after the run, want %d (fresh results stored back)", len(cache.m), n)
	}
}

// TestDispatcherCancellation: cancelling the context settles the remaining
// tasks as skips carrying the context error, matching exec.Stream semantics.
func TestDispatcherCancellation(t *testing.T) {
	const n = 6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clients := startWorkers(t, 1)
	d, err := NewDispatcher[testResult](clients, DispatchOptions{Job: mustJob(t, testJob{N: n})})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	skipped := 0
	for ev := range d.Stream(ctx, dispatchPlan(n), exec.Options[testResult]{}) {
		seen++
		if ev.Skipped {
			skipped++
			if !errors.Is(ev.Err, context.Canceled) {
				t.Errorf("skipped task %s carries %v, want context.Canceled", ev.ID, ev.Err)
			}
		}
	}
	if seen != n {
		t.Fatalf("cancelled stream emitted %d events, want %d", seen, n)
	}
	if skipped == 0 {
		t.Error("pre-cancelled context skipped nothing")
	}
}

// TestClaimRefusedIsError: a worker that refuses a claim (unknown kind)
// produces a claim error naming the refusal, not a hang or a bogus result.
func TestClaimRefusedIsError(t *testing.T) {
	clients := startWorkers(t, 1)
	creq := &ClaimRequest{Protocol: ProtocolVersion, Job: Job{Kind: "nope"}, Tasks: []int{0}}
	err := clients[0].Claim(context.Background(), creq, time.Second, func(*Message) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("unknown-kind claim error = %v, want a refusal", err)
	}
}

// mapCache is an exec.Cache over a mutex-guarded map.
type mapCache struct {
	mu sync.Mutex
	m  map[string]testResult
}

func (c *mapCache) Load(id string) (testResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[id]
	return r, ok
}

func (c *mapCache) Store(id string, r testResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[id] = r
}
