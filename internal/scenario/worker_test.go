package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"atlarge/internal/dist"
	"atlarge/internal/workload"
)

// memoWorker is one protocol worker over the real sweep builder with its own
// trace memo, recording the traces the memo builds and, at each build, how
// many entries the memo holds.
type memoWorker struct {
	memo *traceMemo

	mu       sync.Mutex
	built    []traceKey
	maxLive  int
	inflight atomic.Int32
	// maxInflight is the most claims the worker ran at once.
	maxInflight int32
}

func newMemoWorker() *memoWorker {
	w := &memoWorker{memo: &traceMemo{keepIdle: true}}
	w.memo.built = func(key traceKey, _ *workload.Trace) {
		w.memo.mu.Lock()
		live := len(w.memo.entries)
		w.memo.mu.Unlock()
		w.mu.Lock()
		w.built = append(w.built, key)
		w.maxLive = max(w.maxLive, live)
		w.mu.Unlock()
	}
	return w
}

// handler serves the protocol, counting the claims in flight; wrap, when
// non-nil, wraps the worker's own handler.
func (w *memoWorker) handler(wrap func(http.Handler) http.Handler) http.Handler {
	var h http.Handler = (&dist.Worker{Build: map[string]dist.Builder{DistJobKind: workerBuilder(w.memo)}, Parallelism: 2}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n := w.inflight.Add(1)
		w.mu.Lock()
		w.maxInflight = max(w.maxInflight, n)
		w.mu.Unlock()
		defer w.inflight.Add(-1)
		h.ServeHTTP(rw, r)
	})
}

// builtKeys returns the keys of the traces the worker built.
func (w *memoWorker) builtKeys() map[traceKey]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[traceKey]int)
	for _, k := range w.built {
		out[k]++
	}
	return out
}

// serve starts the worker over HTTP and dials it.
func (w *memoWorker) serve(t *testing.T, wrap func(http.Handler) http.Handler) *dist.Client {
	t.Helper()
	srv := httptest.NewServer(w.handler(wrap))
	t.Cleanup(srv.Close)
	c, err := dist.Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeSpec is examples/scenarios/smoke-32.json, its plan shape (16 cells ×
// 2 replicas, 2 traces) unchanged, at jobs workload jobs per trace so the
// test runs quickly under the race detector.
func smokeSpec(t *testing.T, jobs int, loads ...float64) *Spec {
	t.Helper()
	s, _ := loadCommitted(t, "smoke-32")
	s.Workload.Jobs = jobs
	if len(loads) > 0 {
		s.Sweep["load"] = nil
		for _, l := range loads {
			s.Sweep["load"] = append(s.Sweep["load"], l)
		}
	}
	return s
}

// distributed renders s in every format through the given workers.
func distributed(t *testing.T, s *Spec, clients []*dist.Client, dstats *dist.Stats) []byte {
	t.Helper()
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Parallelism: 2}
	if err := Distribute(&opt, s, clients, dstats); err != nil {
		t.Fatal(err)
	}
	return renderAll(t, s, cells, opt)
}

// inProcess renders s in every format through Run.
func inProcess(t *testing.T, s *Spec) []byte {
	t.Helper()
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(t, s, cells, Options{Parallelism: 2})
}

// TestWorkerTraceBuilds: the smoke sweep's 32 tasks read 2 traces, and the
// dispatcher claims each trace's tasks together, so every worker builds each
// trace at most once — at most 4 builds on 2 workers and 6 on 3, where a
// worker building per task made 32 — and the report stays byte-identical.
func TestWorkerTraceBuilds(t *testing.T) {
	s := smokeSpec(t, 60)
	want := inProcess(t, s)
	for _, tc := range []struct{ workers, maxBuilds int }{{2, 4}, {3, 6}} {
		var clients []*dist.Client
		var workers []*memoWorker
		for i := 0; i < tc.workers; i++ {
			w := newMemoWorker()
			workers = append(workers, w)
			clients = append(clients, w.serve(t, nil))
		}
		if got := distributed(t, s, clients, &dist.Stats{}); !bytes.Equal(got, want) {
			t.Fatalf("%d workers: report differs from the in-process run", tc.workers)
		}
		builds := 0
		for i, w := range workers {
			for key, n := range w.builtKeys() {
				if n > 1 {
					t.Errorf("%d workers: worker %d built %s (seed %d) %d times", tc.workers, i, key.workloadID, key.seed, n)
				}
				builds += n
			}
		}
		if builds > tc.maxBuilds {
			t.Errorf("%d workers built %d traces, want at most %d", tc.workers, builds, tc.maxBuilds)
		}
	}
}

// TestWorkerTraceMemoBounded: a worker holds the traces of its claims in
// flight plus one, however long the plan. The dispatcher keeps one claim in
// flight per worker, so every build finds at most 2 entries in the memo:
// over a plan 4× longer than the smoke sweep (16 loads), and over one with 8
// replicas, whose 8 traces must come and go.
func TestWorkerTraceMemoBounded(t *testing.T) {
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = 0.5 + 0.05*float64(i)
	}
	long := smokeSpec(t, 30, loads...)
	replicas := smokeSpec(t, 30)
	replicas.Replicas = 8
	for name, s := range map[string]*Spec{"16-loads": long, "8-replicas": replicas} {
		t.Run(name, func(t *testing.T) {
			w1, w2 := newMemoWorker(), newMemoWorker()
			clients := []*dist.Client{w1.serve(t, nil), w2.serve(t, nil)}
			if got := distributed(t, s, clients, &dist.Stats{}); !bytes.Equal(got, inProcess(t, s)) {
				t.Fatal("report differs from the in-process run")
			}
			for i, w := range []*memoWorker{w1, w2} {
				w.mu.Lock()
				if w.maxInflight > 1 {
					t.Errorf("worker %d ran %d claims at once", i, w.maxInflight)
				}
				if w.maxLive > int(w.maxInflight)+1 {
					t.Errorf("worker %d held %d traces with %d claims in flight", i, w.maxLive, w.maxInflight)
				}
				w.mu.Unlock()
			}
		})
	}
}

// firstResultAbort makes a worker abort every claim's connection once the
// claim's first result line has gone out: a worker process killed mid-claim.
func firstResultAbort(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(rw, r)
			return
		}
		next.ServeHTTP(&cutWriter{ResponseWriter: rw}, r)
		panic(http.ErrAbortHandler)
	})
}

// cutWriter passes writes through up to and including the first result
// line, and fails every write after it.
type cutWriter struct {
	http.ResponseWriter
	mu  sync.Mutex
	cut bool
}

func (w *cutWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cut {
		return 0, errors.New("connection cut")
	}
	w.cut = bytes.Contains(p, []byte(`"type":"result"`))
	return w.ResponseWriter.Write(p)
}

func (w *cutWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestWorkerLossThroughWorkerBuilder: one of two real sweep workers aborts
// each claim after its first result. The sweep still renders byte-identical
// to the in-process run, the lost tasks are re-dispatched, and the surviving
// worker builds the traces of the groups it took over itself.
func TestWorkerLossThroughWorkerBuilder(t *testing.T) {
	s := smokeSpec(t, 60)
	want := inProcess(t, s)
	healthy, flaky := newMemoWorker(), newMemoWorker()
	clients := []*dist.Client{healthy.serve(t, nil), flaky.serve(t, firstResultAbort)}
	dstats := &dist.Stats{}
	if got := distributed(t, s, clients, dstats); !bytes.Equal(got, want) {
		t.Fatal("report after worker loss differs from the in-process run")
	}
	if dstats.Redispatched() == 0 {
		t.Fatal("the aborting worker cost no re-dispatches")
	}
	lost := flaky.builtKeys()
	if len(lost) == 0 {
		t.Fatal("the aborting worker built no trace")
	}
	survived := healthy.builtKeys()
	for key := range lost {
		if survived[key] == 0 {
			t.Errorf("the surviving worker never built %s (seed %d), whose tasks it took over", key.workloadID, key.seed)
		}
	}
}

// TestWorkerMemoKeepsJobsApart: two jobs whose specs share a name, and so
// their WorkloadIDs and workload seeds, but not their workloads run through
// one builder; the second must get its own traces, not the first's.
func TestWorkerMemoKeepsJobsApart(t *testing.T) {
	build := workerBuilder(&traceMemo{keepIdle: true})
	run := func(build dist.Builder, jobs int) []string {
		s := smokeSpec(t, jobs)
		job, err := DistJob(s, s.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := build(job)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, task := range plan.Tasks {
			raw, err := task.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(raw))
		}
		return out
	}
	first := run(build, 20)
	second := run(build, 25)
	fresh := run(workerBuilder(&traceMemo{keepIdle: true}), 25)
	if strings.Join(second, "\n") != strings.Join(fresh, "\n") {
		t.Fatal("the second job's results differ from a fresh worker's: a trace of the first job served it")
	}
	if strings.Join(first, "\n") == strings.Join(second, "\n") {
		t.Fatal("the two jobs gave identical results; the test cannot tell their traces apart")
	}
}

// TestWorkerMemoEviction walks a worker memo's rules by hand: reserved
// entries stay, and of the released ones only the last released stays,
// until a task needs a trace the memo lacks.
func TestWorkerMemoEviction(t *testing.T) {
	m := &traceMemo{keepIdle: true}
	key := func(seed int64) traceKey { return traceKey{workloadID: "w", seed: seed} }
	held := func() string {
		m.mu.Lock()
		defer m.mu.Unlock()
		var out []string
		for seed := int64(1); seed <= 3; seed++ {
			if m.entries[key(seed)] != nil {
				out = append(out, fmt.Sprint(seed))
			}
		}
		return strings.Join(out, " ")
	}
	for _, step := range []struct {
		reserve, release []int64
		want             string
	}{
		{reserve: []int64{1, 2}, release: []int64{1}, want: "1 2"},
		{release: []int64{2}, want: "2"},
		{reserve: []int64{2, 3}, release: []int64{3}, want: "2 3"},
		{release: []int64{2}, want: "2"},
		{reserve: []int64{1}, want: "1"},
	} {
		for _, seed := range step.reserve {
			m.reserve(key(seed))
		}
		for _, seed := range step.release {
			m.release(key(seed))
		}
		if got := held(); got != step.want {
			t.Fatalf("after reserving %v and releasing %v: memo holds %q, want %q", step.reserve, step.release, got, step.want)
		}
	}
}
