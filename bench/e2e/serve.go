package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atlarge"
	"atlarge/internal/api"
	"atlarge/internal/scenario"
)

// The serve workload's traffic, both open loop. Jobs arrive at a fixed rate,
// each at a seeded random point in the middle half of its own 1/rate slot:
// with Poisson bursts the median job sits at the boundary between running
// alone and sharing both CPUs with another, and swings by ±25% between
// seeds. Reads are a Poisson process. Jobs are distinct sweeps (a unique
// seed each), polled until their result is fetched; reads are cache hits
// over a small key set. The job rate puts the process at about half of a
// 2-CPU machine.
const (
	serveJobRate  = 9.0  // job submissions per second
	serveReadRate = 85.0 // reads per second
	servePoll     = 5 * time.Millisecond
	serveReadIDs  = "fig1,tab6"
	serveReadKeys = 4 // reads use seed k in 0..serveReadKeys-1
	serveClients  = 2 // client goroutines, one keep-alive connection each
	serveDeadline = 30 * time.Second
	serveSamples  = 5 // job results recomputed in-process after the load
)

// serveJobSpec is the sweep every job submits: 3 policies × 2 loads × 2
// replicas of a 150-job scientific workload. The loads stay below
// saturation, where a job's cost hardly depends on its seed.
const serveJobSpec = `{"version": 2, "name": "serve-bench", "domain": "sched",
	"workload": {"class": "scientific", "jobs": 150},
	"cluster": {"kind": "CL", "machines": 16, "cores": 8},
	"replicas": 2,
	"sweep": {"policy": ["sjf", "fcfs", "easy-bf"], "load": [0.5, 0.7]}}`

// serveJob is one scheduled job and what became of it.
type serveJob struct {
	seed    int64
	offset  time.Duration // scheduled submission, from the phase origin
	due     time.Time
	id      string
	polls   int
	latency time.Duration
	digest  string
	failed  bool
}

// serveRead is one scheduled read.
type serveRead struct {
	key     int
	offset  time.Duration
	latency time.Duration
}

// serveSchedule derives the traffic of a window from the seed: rate ×
// window jobs, the i-th at a uniformly drawn point of [i+¼, i+¾]/rate, and
// rate × window reads at uniformly drawn times (a Poisson process
// conditioned on its count); job seeds and read keys.
func serveSchedule(seed int64, window time.Duration) ([]*serveJob, []*serveRead) {
	rng := rand.New(rand.NewSource(seed))
	count := func(rate float64) int { return int(math.Round(rate * window.Seconds())) }
	slot := float64(time.Second) / serveJobRate
	jobs := make([]*serveJob, count(serveJobRate))
	for i := range jobs {
		jobs[i] = &serveJob{
			seed:   atlarge.DeriveSeed(seed, "serve-job", i),
			offset: time.Duration((float64(i) + 0.25 + 0.5*rng.Float64()) * slot),
		}
	}
	reads := make([]*serveRead, count(serveReadRate))
	at := make([]time.Duration, len(reads))
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(at)
	for i := range reads {
		reads[i] = &serveRead{key: rng.Intn(serveReadKeys), offset: at[i]}
	}
	return jobs, reads
}

// jobsDigest is the canonical output of the serve workload: the SHA-256 of
// the (seed, result SHA-256) list of every job, sorted by seed.
func jobsDigest(jobs []*serveJob) string {
	lines := make([]string, len(jobs))
	for i, j := range jobs {
		lines[i] = fmt.Sprintf("%d %s\n", j.seed, j.digest)
	}
	sort.Strings(lines)
	return digest([]byte(strings.Join(lines, "")))
}

// localJobDigest computes a job's result in-process: the bytes the server
// must serve for it.
func localJobDigest(seed int64) (string, error) {
	spec, cells, err := parseSweep(serveJobSpec)
	if err != nil {
		return "", err
	}
	rep, err := scenario.Run(context.Background(), spec, cells, scenario.Options{Parallelism: 2, Seed: &seed})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

func refServe(seed int64, window time.Duration) (string, error) {
	jobs, _ := serveSchedule(seed, window)
	for _, j := range jobs {
		d, err := localJobDigest(j.seed)
		if err != nil {
			return "", err
		}
		j.digest = d
	}
	return jobsDigest(jobs), nil
}

// serveFixture is the in-process server under load and its client.
type serveFixture struct {
	dir     string
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	current atomic.Pointer[tracer]
	primed  [serveReadKeys][]byte
	refused atomic.Int64
	mu      sync.Mutex
	jobIDs  []string // every job the server accepted
}

func bootServe() (*serveFixture, error) {
	dir, err := os.MkdirTemp("", "e2e-serve-")
	if err != nil {
		return nil, err
	}
	f := &serveFixture{dir: dir, served: make(chan struct{})}
	srv := api.New(api.Config{Parallelism: 2, StateDir: dir, MaxJobs: 1 << 16, KeepJobs: 1 << 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.hs = &http.Server{Handler: &timingHandler{next: srv, tr: f.current.Load, timer: "api.server", route: apiRoute}}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	f.base = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	return f, nil
}

// apiRoute classifies a request for the api.*_s latency samples.
func apiRoute(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		return "api.submit_s"
	case req.URL.Path == "/v1/run":
		return "api.read_s"
	case strings.HasSuffix(req.URL.Path, "/result"):
		return "api.result_s"
	case strings.HasPrefix(req.URL.Path, "/v1/jobs/") && !strings.Contains(req.URL.Path[len("/v1/jobs/"):], "/"):
		return "api.poll_s"
	}
	return ""
}

// accepted records a job the server accepted.
func (f *serveFixture) accepted(id string) {
	f.mu.Lock()
	f.jobIDs = append(f.jobIDs, id)
	f.mu.Unlock()
}

// settle waits, for at most 5 s in all, until the server has persisted the
// final record of every accepted job. A job reads done before its record is
// written, so without this the state size would miss the last jobs and
// removing the state directory would race the server's writes.
func (f *serveFixture) settle() {
	f.mu.Lock()
	ids := slices.Clone(f.jobIDs)
	f.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for time.Now().Before(deadline) {
			var rec struct{ State string }
			raw, err := os.ReadFile(filepath.Join(f.dir, id, "job.json"))
			if err == nil && json.Unmarshal(raw, &rec) == nil && rec.State != "running" {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// close shuts the server down, waits for its serving goroutine and removes
// the state directory. Every job has finished before it is called.
func (f *serveFixture) close() {
	f.settle()
	f.client.CloseIdleConnections()
	_ = f.hs.Close()
	<-f.served
	os.RemoveAll(f.dir)
}

// do issues one request and returns its status and body.
func (f *serveFixture) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests {
		f.refused.Add(1)
	}
	return resp.StatusCode, raw, err
}

func readPath(key int) string {
	return "/v1/run?ids=" + serveReadIDs + "&seed=" + strconv.Itoa(key)
}

// prime fills the read cache: each key's first read computes it.
func (f *serveFixture) prime() error {
	for k := range f.primed {
		code, body, err := f.do(http.MethodGet, readPath(k), nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("priming read %d: status %d: %s", k, code, body)
		}
		f.primed[k] = body
	}
	return nil
}

// loadOp is one request the load generator owes: a scheduled submission or
// read, or a job's follow-up poll or result fetch.
type loadOp struct {
	due  time.Time
	job  *serveJob
	read *serveRead
	kind int
}

const (
	opSubmit = iota
	opPoll
	opResult
	opRead
)

type opQueue []*loadOp

func (q opQueue) Len() int           { return len(q) }
func (q opQueue) Less(i, j int) bool { return q[i].due.Before(q[j].due) }
func (q opQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *opQueue) Push(x any)        { *q = append(*q, x.(*loadOp)) }
func (q *opQueue) Pop() any {
	old := *q
	op := old[len(old)-1]
	*q = old[:len(old)-1]
	return op
}

// phase is one open-loop run of scheduled jobs and reads from a common
// origin; it returns when every job has settled and every read answered.
type phase struct {
	f       *serveFixture
	origin  time.Time
	mu      sync.Mutex
	cond    *sync.Cond
	queue   opQueue
	pending int       // jobs and reads not yet settled
	lags    []float64 // how late each scheduled request was sent, in seconds
	sent    []time.Time
	fails   []string
}

func (f *serveFixture) runPhase(jobs []*serveJob, reads []*serveRead, origin time.Time) *phase {
	p := &phase{f: f, origin: origin, pending: len(jobs) + len(reads)}
	p.cond = sync.NewCond(&p.mu)
	for _, j := range jobs {
		j.due = origin.Add(j.offset)
		p.queue = append(p.queue, &loadOp{due: j.due, job: j, kind: opSubmit})
	}
	for _, rd := range reads {
		p.queue = append(p.queue, &loadOp{due: origin.Add(rd.offset), read: rd, kind: opRead})
	}
	heap.Init(&p.queue)
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.client()
		}()
	}
	wg.Wait()
	return p
}

// client is one load-generator goroutine: it takes the earliest owed
// request, waits until it is due, sends it and queues any follow-up.
func (p *phase) client() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && p.pending > 0 {
			p.cond.Wait()
		}
		if p.pending == 0 {
			p.mu.Unlock()
			p.cond.Broadcast()
			return
		}
		op := heap.Pop(&p.queue).(*loadOp)
		p.mu.Unlock()
		if d := time.Until(op.due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if op.kind == opSubmit || op.kind == opRead {
			p.mu.Lock()
			p.lags = append(p.lags, now.Sub(op.due).Seconds())
			p.sent = append(p.sent, now)
			p.mu.Unlock()
		}
		next, settled := p.send(op)
		p.mu.Lock()
		if next != nil {
			heap.Push(&p.queue, next)
		}
		if settled {
			p.pending--
		}
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

// send performs one request and returns the follow-up it owes, if any, and
// whether the job or read it belongs to has settled.
func (p *phase) send(op *loadOp) (*loadOp, bool) {
	f := p.f
	switch op.kind {
	case opRead:
		code, body, err := f.do(http.MethodGet, readPath(op.read.key), nil)
		op.read.latency = time.Since(op.due)
		switch {
		case err != nil:
			p.fail("read: %v", err)
		case code != http.StatusOK:
			p.fail("read seed=%d: status %d", op.read.key, code)
		case !bytes.Equal(body, f.primed[op.read.key]):
			p.fail("read seed=%d: body differs from the primed response", op.read.key)
		}
		return nil, true
	case opSubmit:
		body := fmt.Sprintf(`{"kind": "sweep", "spec": %s, "seed": %d}`, serveJobSpec, op.job.seed)
		code, raw, err := f.do(http.MethodPost, "/v1/jobs", []byte(body))
		if err != nil || code != http.StatusAccepted {
			return p.jobFailed(op.job, "submit: status %d: %v %s", code, err, raw)
		}
		var doc struct{ ID string }
		if err := json.Unmarshal(raw, &doc); err != nil || doc.ID == "" {
			return p.jobFailed(op.job, "submit: bad response %s", raw)
		}
		op.job.id = doc.ID
		f.accepted(doc.ID)
		return &loadOp{due: time.Now().Add(servePoll), job: op.job, kind: opPoll}, false
	case opPoll:
		op.job.polls++
		code, raw, err := f.do(http.MethodGet, "/v1/jobs/"+op.job.id, nil)
		if err != nil || code != http.StatusOK {
			return p.jobFailed(op.job, "poll: status %d: %v", code, err)
		}
		var doc struct{ State string }
		if err := json.Unmarshal(raw, &doc); err != nil {
			return p.jobFailed(op.job, "poll: %v", err)
		}
		switch {
		case doc.State == "done":
			return &loadOp{due: time.Now(), job: op.job, kind: opResult}, false
		case doc.State != "running":
			return p.jobFailed(op.job, "job %s ended %s", op.job.id, doc.State)
		case time.Since(op.job.due) > serveDeadline:
			return p.jobFailed(op.job, "job %s not done after %v", op.job.id, serveDeadline)
		}
		return &loadOp{due: time.Now().Add(servePoll), job: op.job, kind: opPoll}, false
	case opResult:
		code, raw, err := f.do(http.MethodGet, "/v1/jobs/"+op.job.id+"/result", nil)
		if err != nil || code != http.StatusOK {
			return p.jobFailed(op.job, "result: status %d: %v", code, err)
		}
		op.job.latency = time.Since(op.job.due)
		op.job.digest = digest(raw)
		return nil, true
	}
	return nil, true
}

func (p *phase) jobFailed(j *serveJob, format string, args ...any) (*loadOp, bool) {
	j.failed = true
	p.fail("job seed=%d: "+format, append([]any{j.seed}, args...)...)
	return nil, true
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.fails = append(p.fails, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// jobProfile is the part of GET /v1/jobs/{id}/profile the benchmark reads.
type jobProfile struct {
	Tasks struct {
		Observed int `json:"observed"`
	} `json:"tasks"`
	QueueWaitMs struct {
		Mean float64 `json:"mean"`
	} `json:"queue_wait_ms"`
	RunMs struct {
		Mean float64 `json:"mean"`
	} `json:"run_ms"`
}

// setUpServe boots a server, primes its read cache and runs one job round
// trip outside the schedule: the time until the server has answered both
// kinds of traffic.
func setUpServe(r *result, seed int64) (*serveFixture, error) {
	f, err := bootServe()
	if err != nil {
		return nil, err
	}
	if err := f.prime(); err != nil {
		f.close()
		return nil, err
	}
	r.Attempted++
	warm := &serveJob{seed: atlarge.DeriveSeed(seed, "serve-warmup", 0)}
	if p := f.runPhase([]*serveJob{warm}, nil, time.Now()); len(p.fails) > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up job: %s", p.fails[0])
	}
	return f, nil
}

func runServe(c *config, r *result) error {
	// The run sets up several times and loads the last server.
	var f *serveFixture
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = setUpServe(r, c.seed); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer f.close()
	r.set("setup_s", median(times), "s", len(times))

	jobs, reads := serveSchedule(c.seed, c.window)
	r.Attempted += len(jobs) + len(reads)
	// Untraced runs play the whole schedule. Traced runs play its first half
	// untraced and, once that has drained, its second half traced.
	split := c.window
	if c.trace {
		split = c.window / 2
	}
	var jobs1, jobs2 []*serveJob
	for _, j := range jobs {
		if j.offset < split {
			jobs1 = append(jobs1, j)
		} else {
			j.offset -= split
			jobs2 = append(jobs2, j)
		}
	}
	var reads1, reads2 []*serveRead
	for _, rd := range reads {
		if rd.offset < split {
			reads1 = append(reads1, rd)
		} else {
			rd.offset -= split
			reads2 = append(reads2, rd)
		}
	}

	hs := startHeapSampler()
	laps := hs.lapEvery(time.Second)
	before := takeSnapshot()
	p1 := f.runPhase(jobs1, reads1, time.Now())
	load := before.until(takeSnapshot())
	peaks := laps()
	hs.Stop()
	// Per job served: the load's CPU and allocation, reads included.
	served := float64(max(len(jobs1), 1))
	r.set("cpu_s", load.CPU.Seconds()/served, "s", len(jobs1))
	r.set("alloc_mib", float64(load.AllocBytes)/(1<<20)/served, "MiB", len(jobs1))
	r.set("allocs", float64(load.Allocs)/served, "count", len(jobs1))
	r.set("peak_heap_mib", median(peaks), "MiB", len(peaks))
	r.set("bench.cpu_util", load.CPU.Seconds()/(load.Wall.Seconds()*float64(runtime.NumCPU())), "ratio", 1)
	phases := []*phase{p1}
	if c.trace {
		tr := newTracer()
		tr.install()
		f.current.Store(tr)
		s2 := time.Now()
		p2 := f.runPhase(jobs2, reads2, s2)
		wall2 := time.Since(s2)
		f.current.Store(nil)
		tr.uninstall()
		phases = append(phases, p2)
		if err := serveLayers(r, f, tr, jobs2, reads2, wall2); err != nil {
			return err
		}
		r.set("bench.trace_overhead_ratio", percentile(jobLatencies(jobs2), 0.5)/percentile(jobLatencies(jobs1), 0.5)-1, "ratio", len(jobs2))
	}
	for _, p := range phases {
		r.Failed += len(p.fails)
		for _, msg := range p.fails {
			r.problem("%s", msg)
		}
	}
	serveLatencies(r, jobs1, reads1, p1, split)
	f.settle()
	if err := serveState(r, f, len(jobs)+1); err != nil {
		return err
	}

	// Correctness: a sample of served results must equal the same sweep run
	// in-process, and the whole result list forms the pinned digest.
	for i := 0; i < serveSamples && len(jobs) > 0; i++ {
		j := jobs[i*len(jobs)/serveSamples]
		if j.failed {
			continue
		}
		want, err := localJobDigest(j.seed)
		if err != nil {
			return err
		}
		if want != j.digest {
			r.fail("job seed=%d: served result %.12s differs from the in-process run's %.12s", j.seed, j.digest, want)
		}
	}
	r.Digest = jobsDigest(jobs)
	return nil
}

// jobLatencies are the round trips of the jobs that finished, in seconds.
func jobLatencies(jobs []*serveJob) []float64 {
	var xs []float64
	for _, j := range jobs {
		if !j.failed {
			xs = append(xs, j.latency.Seconds())
		}
	}
	return xs
}

// serveLatencies records the user-visible latencies of the untraced phase,
// each timed from the request's scheduled send time, and the generator's
// own lateness.
func serveLatencies(r *result, jobs []*serveJob, reads []*serveRead, p *phase, window time.Duration) {
	jl := jobLatencies(jobs)
	var rl []float64
	for _, rd := range reads {
		rl = append(rl, rd.latency.Seconds())
	}
	r.set("wall_s", percentile(jl, 0.5), "s", len(jl))
	r.set("job_p90_s", percentile(jl, 0.9), "s", len(jl))
	r.set("read_p50_s", percentile(rl, 0.5), "s", len(rl))
	r.set("read_p99_s", percentile(rl, 0.99), "s", len(rl))
	r.set("bench.gen_lag_p99_s", percentile(p.lags, 0.99), "s", len(p.lags))
	// Backlog at the window's end: scheduled requests (all due before it)
	// not yet sent.
	end := p.origin.Add(window)
	backlog := 0
	for _, sent := range p.sent {
		if sent.After(end) {
			backlog++
		}
	}
	r.set("bench.backlog_end", float64(backlog), "count", len(p.sent))
}

// serveLayers derives the per-layer metrics of the traced phase: job task
// run time from each job's profile endpoint, the server's own request time
// from the middleware, the cache hit ratio from /metrics.
func serveLayers(r *result, f *serveFixture, tr *tracer, jobs []*serveJob, reads []*serveRead, wall time.Duration) error {
	var polls, waitMs, runMs float64
	var done int
	for _, j := range jobs {
		if j.failed {
			continue
		}
		code, raw, err := f.do(http.MethodGet, "/v1/jobs/"+j.id+"/profile", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("job %s profile: status %d: %v", j.id, code, err)
		}
		var prof jobProfile
		if err := json.Unmarshal(raw, &prof); err != nil {
			return fmt.Errorf("job %s profile: %w", j.id, err)
		}
		tasks := float64(prof.Tasks.Observed)
		tr.addTime("exec.run", time.Duration(prof.RunMs.Mean*tasks*float64(time.Millisecond)))
		tr.add("exec.tasks", tasks)
		polls += float64(j.polls)
		waitMs += prof.QueueWaitMs.Mean
		runMs += prof.RunMs.Mean
		done++
	}
	if done == 0 {
		return fmt.Errorf("no traced job finished")
	}
	// The shares are of the traced phase's capacity; the per-job figures are
	// per finished job.
	tr.analyse(r, 1, wall.Seconds()*float64(runtime.NumCPU()))
	r.set("api.polls_per_job", polls/float64(done), "count", done)
	r.set("api.job_queue_wait_s", waitMs/float64(done)/1e3, "s", done)
	r.set("api.job_run_s", runMs/float64(done)/1e3, "s", done)
	r.set("api.refused", float64(f.refused.Load()), "count", len(jobs)+len(reads))
	ratio, err := f.scrape("atlarge_cache_hit_ratio")
	if err != nil {
		return err
	}
	r.set("api.cache_hit_ratio", ratio, "ratio", 1)
	return nil
}

// scrape reads one unlabeled sample from /metrics.
func (f *serveFixture) scrape(name string) (float64, error) {
	code, raw, err := f.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d: %v", code, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// serveState records the job store's size per job.
func serveState(r *result, f *serveFixture, jobs int) error {
	var size int64
	err := filepath.WalkDir(f.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	r.set("api.state_kib_per_job", float64(size)/1024/float64(jobs), "KiB", jobs)
	return nil
}
