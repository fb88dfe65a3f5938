// Package api serves experiment and scenario results over HTTP — the
// `atlarge serve` layer of the Results API v2. Results are machine-readable
// typed documents, so they can feed programmatic design cycles. Every piece
// of work the server runs is a job in one table keyed by the content of the
// work, so repeated and concurrent identical queries share one execution
// and its retained result.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"atlarge"
	"atlarge/internal/api/metrics"
	"atlarge/internal/dist"
	"atlarge/internal/exec"
	"atlarge/internal/obs"
	"atlarge/internal/scenario"
	"atlarge/internal/sim"
)

// maxSpecBytes bounds a job or sweep request body; real specs are a few
// KiB, so 1 MiB is generous while keeping the server un-OOM-able.
const maxSpecBytes = 1 << 20

// maxReplicas bounds the replicas of one run or sweep request.
const maxReplicas = 64

// Config tunes a Server.
type Config struct {
	// Registry supplies the experiment catalog; nil means the default
	// built-in catalog.
	Registry *atlarge.Registry
	// Parallelism bounds the worker pool behind each job; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// MaxJobs bounds the running jobs POST /v1/jobs submissions hold; work
	// a request waits on is bounded by Rate and QueueDepth instead. <= 0
	// means 4.
	MaxJobs int
	// KeepJobs bounds the finished jobs retained — sweep reports and
	// experiment run results alike; the oldest finished jobs beyond it are
	// evicted (their IDs are remembered, so fetching an evicted result is
	// 410 result_evicted, not 404). <= 0 means 256.
	KeepJobs int
	// Rate is the per-client admission rate for work-submitting endpoints
	// (requests/second, token bucket keyed by X-Atlarge-Client or remote
	// host); <= 0 disables rate limiting.
	Rate float64
	// Burst is the token bucket capacity; <= 0 means max(1, ceil(Rate)).
	Burst int
	// QueueDepth bounds the pending-task queue across all work the server
	// is running: once it is that deep, requests that would create a job
	// are refused with 429 and a computed Retry-After. <= 0 means 4096.
	QueueDepth int
	// StateDir, when non-empty, makes sweep jobs durable: specs and state
	// persist under this directory (shared with the sweep checkpoint
	// store, so a job's partial results live next to its record), and
	// RecoverJobs resumes interrupted jobs after a restart. Run jobs stay
	// in memory.
	StateDir string
	// Workers lists remote worker addresses ("host:port" or http URLs); when
	// non-empty (and after ConnectWorkers succeeds), sweeps execute across
	// those worker processes instead of the in-process pool, byte-identically.
	// /v1/run traffic stays local.
	Workers []string
	// KernelProfile attaches a shared per-event-name profile to every
	// simulation kernel the process creates (it installs the process-global
	// kernel observer), surfacing per-event fire counts and handler wall
	// time as /metrics families. Off by default: profiling adds a tracer
	// call per kernel event.
	KernelProfile bool
}

// Server is the HTTP face of the Results API:
//
//	GET    /v1/experiments                     the experiment catalog
//	GET    /v1/run?ids=&seed=&replicas=        typed run results (one run job per experiment)
//	GET    /v1/run/stream?ids=&seed=&replicas= the same run jobs' progress as live NDJSON events
//	POST   /v1/scenario/sweep?seed=&replicas=  run a scenario spec body as a sweep job and wait
//	POST   /v1/jobs                            submit async work ({"kind","spec","seed"?,"replicas"?})
//	GET    /v1/jobs?state=                     list jobs of every kind, optionally filtered by state
//	GET    /v1/jobs/{id}                       one job's resource document
//	GET    /v1/jobs/{id}/result                the finished job's result (sync-identical bytes)
//	GET    /v1/jobs/{id}/profile               the job's execution profile (span aggregates)
//	DELETE /v1/jobs/{id}                       cancel a running job mid-plan
//	GET    /metrics                            Prometheus text-format server metrics
//
// Every endpoint that runs work does so through one job table. A sweep
// job's ID is the content hash of (spec, seed, replicas) — the same hash
// the sweep checkpoint store uses — and a run job's names its (experiment,
// seed, replicas), so identical work from concurrent clients dedups onto
// one job and a finished job answers repeats until it is evicted. With
// Config.StateDir set sweep jobs survive restarts: RecoverJobs re-lists
// finished jobs and resumes interrupted ones byte-identically from their
// checkpointed tasks.
//
// All responses are JSON; errors use the typed envelope
// {"error": {"code", "message", "retry_after"?}}. Run results are
// byte-identical for a fixed query at any parallelism and whether their
// jobs ran or were joined, and a job's result is byte-identical to the
// synchronous response for the same work.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	stats    *exec.Stats
	adm      *admission
	store    *jobstore // nil without StateDir or when it is unusable
	storeErr error     // why StateDir is unusable

	// Distributed execution (Config.Workers): the dialed worker clients and
	// the process-wide dist counters behind the atlarge_dist_* families.
	// distClients is written once by ConnectWorkers, before traffic.
	distClients []*dist.Client
	distStats   *dist.Stats

	// jobMu guards the job table, the evicted-ID memory and every job's
	// waiters and hold.
	jobMu        sync.Mutex
	jobs         map[string]*job
	jobOrder     []string
	evicted      map[string]bool
	evictedOrder []string

	// Prometheus instruments (see /metrics).
	metrics      *metrics.Registry
	mRequests    *metrics.CounterVec
	mLatency     *metrics.HistogramVec
	mCacheHits   *metrics.Counter
	mCacheMisses *metrics.Counter

	// Kernel observability: krate smooths the process-wide fired-event
	// counter into events/second; kprof (Config.KernelProfile only)
	// aggregates per-event-name profiles across every kernel.
	krate *rateTracker
	kprof *obs.SharedProfile
}

// New returns a ready-to-serve Server. With Config.StateDir set, call
// RecoverJobs before serving traffic to re-list and resume persisted jobs;
// New itself never launches work.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = atlarge.DefaultRegistry()
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		stats:     &exec.Stats{},
		jobs:      make(map[string]*job),
		evicted:   make(map[string]bool),
		distStats: &dist.Stats{},
	}
	var limiter *rateLimiter
	if cfg.Rate > 0 {
		limiter = newRateLimiter(cfg.Rate, cfg.Burst)
	}
	s.adm = newAdmission(limiter, s.stats, cfg.QueueDepth)
	s.krate = newRateTracker(func() float64 { return float64(sim.GlobalEventsFired()) })
	if cfg.KernelProfile {
		s.kprof = obs.NewSharedProfile()
		kprof := s.kprof
		sim.SetKernelObserver(func(k *sim.Kernel) { k.SetTracer(kprof) })
	}
	if cfg.StateDir != "" {
		// An unusable state dir is kept as storeErr: RecoverJobs returns it
		// and every submission is refused with it, while the server still
		// boots so read endpoints work.
		s.store, s.storeErr = newJobstore(cfg.StateDir)
	}
	s.initMetrics()

	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/run/stream", s.handleRunStream)
	s.mux.HandleFunc("POST /v1/scenario/sweep", s.handleScenarioSweep)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleJobProfile)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	return s
}

// ConnectWorkers dials and handshakes every Config.Workers address,
// fail-fast: a sweep must never start against an unreachable or
// version-skewed worker set. Call it once before serving traffic; a no-op
// without configured workers.
func (s *Server) ConnectWorkers(ctx context.Context) error {
	if len(s.cfg.Workers) == 0 {
		return nil
	}
	clients, err := dist.DialAll(ctx, s.cfg.Workers)
	if err != nil {
		return err
	}
	s.distClients = clients
	return nil
}

// initMetrics registers the server's Prometheus instruments: saturation
// signals (queue depth, running tasks, completion rate), cache
// effectiveness, job-table state, and per-endpoint traffic and latency.
func (s *Server) initMetrics() {
	m := metrics.New()
	s.metrics = m
	s.mRequests = m.CounterVec("atlarge_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "endpoint", "code")
	s.mLatency = m.HistogramVec("atlarge_http_request_duration_seconds",
		"HTTP request latency in seconds, by route pattern.", nil, "endpoint")
	s.mCacheHits = m.Counter("atlarge_cache_hits_total",
		"Run lookups answered by a finished run job.")
	s.mCacheMisses = m.Counter("atlarge_cache_misses_total",
		"Run lookups that created a run job.")
	m.GaugeFunc("atlarge_cache_hit_ratio",
		"Fraction of run lookups answered by a finished run job.", func() float64 {
			h, miss := float64(s.mCacheHits.Value()), float64(s.mCacheMisses.Value())
			if h+miss == 0 {
				return 0
			}
			return h / (h + miss)
		})
	m.GaugeFunc("atlarge_queue_depth",
		"Pending (queued or running) tasks across all work the server is executing.",
		func() float64 { return float64(s.stats.Pending()) })
	m.GaugeFunc("atlarge_tasks_running",
		"Tasks currently executing on the worker pool.",
		func() float64 { return float64(s.stats.Running()) })
	m.CounterFunc("atlarge_tasks_completed_total",
		"Tasks that produced a result (live runs and checkpoint cache hits).",
		func() float64 { return float64(s.stats.Completed()) })
	m.CounterFunc("atlarge_tasks_failed_total",
		"Tasks that returned an error.",
		func() float64 { return float64(s.stats.Failed()) })
	m.GaugeFunc("atlarge_tasks_per_second",
		"Smoothed task completion rate (feeds Retry-After estimates).",
		s.adm.completions.rate)
	jobs := m.GaugeVec("atlarge_jobs", "Jobs in the server's table, by state.", "state")
	for _, state := range jobStates {
		jobs.Set(func() float64 { return float64(s.countJobs(state)) }, state)
	}
	if len(s.cfg.Workers) > 0 {
		m.GaugeFunc("atlarge_dist_tasks_inflight",
			"Tasks currently claimed by remote workers and not yet settled.",
			func() float64 { return float64(s.distStats.InFlight()) })
		m.CounterFunc("atlarge_dist_redispatched_total",
			"Tasks re-dispatched after a lost worker claim (death, lease expiry, protocol failure).",
			func() float64 { return float64(s.distStats.Redispatched()) })
		m.CounterSnapshotFunc("atlarge_dist_worker_completions_total",
			"Tasks settled by each remote worker.",
			[]string{"worker"}, func() []metrics.Sample {
				wcs := s.distStats.WorkerCompletions()
				out := make([]metrics.Sample, 0, len(wcs))
				for _, wc := range wcs {
					out = append(out, metrics.Sample{Labels: []string{wc.Worker}, Value: float64(wc.Tasks)})
				}
				return out
			})
	}
	m.CounterFunc("atlarge_kernel_events_total",
		"Simulation kernel events fired process-wide, flushed once per kernel run.",
		func() float64 { return float64(sim.GlobalEventsFired()) })
	m.GaugeFunc("atlarge_kernel_events_per_second",
		"Smoothed kernel event firing rate across all simulations.",
		s.krate.rate)
	if s.kprof != nil {
		m.CounterSnapshotFunc("atlarge_kernel_event_fired_total",
			"Kernel events fired, by event name (requires --kernel-profile).",
			[]string{"event"}, func() []metrics.Sample {
				rows := s.kprof.Rows()
				out := make([]metrics.Sample, 0, len(rows))
				for _, r := range rows {
					out = append(out, metrics.Sample{Labels: []string{r.Name}, Value: float64(r.Fired)})
				}
				return out
			})
		m.CounterSnapshotFunc("atlarge_kernel_event_wall_seconds_total",
			"Wall-clock time spent in kernel event handlers, by event name (requires --kernel-profile).",
			[]string{"event"}, func() []metrics.Sample {
				rows := s.kprof.Rows()
				out := make([]metrics.Sample, 0, len(rows))
				for _, r := range rows {
					out = append(out, metrics.Sample{Labels: []string{r.Name}, Value: float64(r.WallNs) / 1e9})
				}
				return out
			})
	}
}

// countJobs counts table entries in one state.
func (s *Server) countJobs(state string) int {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.currentState() == state {
			n++
		}
	}
	return n
}

// statusWriter captures the response status for the metrics middleware
// while passing streaming (Flush) through.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP implements http.Handler: every request is measured into the
// per-endpoint counters and latency histograms, labeled by route pattern
// (never raw paths, so cardinality stays bounded).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	s.mRequests.With(pattern, strconv.Itoa(code)).Inc()
	s.mLatency.With(pattern).Observe(time.Since(start).Seconds())
}

// CatalogEntry is one experiment in GET /v1/experiments — the same document
// `atlarge list --format json` prints.
type CatalogEntry struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Tags  []string `json:"tags,omitempty"`
	Order int      `json:"order"`
}

// Catalog renders a registry as catalog entries in canonical order.
func Catalog(reg *atlarge.Registry) []CatalogEntry {
	entries := make([]CatalogEntry, 0, reg.Len())
	for _, e := range reg.Experiments() {
		entries = append(entries, CatalogEntry{ID: e.ID, Title: e.Title, Tags: e.Tags, Order: e.Order})
	}
	return entries
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Catalog(s.cfg.Registry))
}

// parseRunQuery validates the shared ids/seed/replicas parameters of the
// run endpoints, writing the error response itself on failure.
func (s *Server) parseRunQuery(w http.ResponseWriter, r *http.Request) (ids []string, seed int64, replicas int, ok bool) {
	q := r.URL.Query()
	seed, err := queryInt64(q.Get("seed"), 42)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "bad seed: %v", err)
		return nil, 0, 0, false
	}
	replicas, err = queryInt(q.Get("replicas"), 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "bad replicas: %v", err)
		return nil, 0, 0, false
	}
	if replicas < 1 || replicas > maxReplicas {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", maxReplicas)
		return nil, 0, 0, false
	}
	ids = splitIDs(q.Get("ids"))
	if len(ids) == 0 {
		ids = s.cfg.Registry.IDs()
	}
	for _, id := range ids {
		if _, err := s.cfg.Registry.Get(id); err != nil {
			writeError(w, http.StatusNotFound, errNotFound, "%v", err)
			return nil, 0, 0, false
		}
	}
	return ids, seed, replicas, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ids, seed, replicas, ok := s.parseRunQuery(w, r)
	if !ok || !s.adm.admitClient(w, r) {
		return
	}
	jobs, prior, ok := s.launch(w, s.runWorks(ids, seed, replicas), false)
	if !ok {
		return
	}
	defer s.release(jobs)
	doc := &atlarge.RunDocument{Seed: seed, Experiments: make([]atlarge.ExperimentResult, 0, len(jobs))}
	for _, j := range jobs {
		if err := j.watch(r.Context(), nil); err != nil {
			writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
			return
		}
		doc.Experiments = append(doc.Experiments, j.exp)
	}
	hits := 0
	for _, p := range prior {
		switch p {
		case jobDone:
			hits++
			s.mCacheHits.Inc()
		case "":
			s.mCacheMisses.Inc()
		}
	}
	cacheState := "partial"
	switch hits {
	case len(ids):
		cacheState = "hit"
	case 0:
		cacheState = "miss"
	}
	w.Header().Set("X-Atlarge-Cache", cacheState)
	writeJSON(w, http.StatusOK, doc)
}

// handleRunStream is the live form of /v1/run: the same validated query and
// the same run jobs, but the response is NDJSON — one "plan" line, one
// "task" line per (experiment, replica) completion as the jobs log them,
// relayed one job after another in request order (all of them run
// meanwhile; a job's completions so far are replayed at once), and a final
// "result" line carrying the full RunDocument (or an "error" line).
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	ids, seed, replicas, ok := s.parseRunQuery(w, r)
	if !ok || !s.adm.admitClient(w, r) {
		return
	}
	jobs, _, ok := s.launch(w, s.runWorks(ids, seed, replicas), false)
	if !ok {
		return
	}
	defer s.release(jobs)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	line := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			return
		}
		w.Write(append(raw, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}

	// One struct per line type, so every field a line owns is always
	// emitted (seed 0 is a valid seed and must not be omitted).
	type planEvent struct {
		Type     string `json:"type"`
		Total    int    `json:"total"`
		Seed     int64  `json:"seed"`
		Replicas int    `json:"replicas"`
	}
	type taskEvent struct {
		Type  string `json:"type"`
		ID    string `json:"id"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	type resultEvent struct {
		Type     string               `json:"type"`
		Document *atlarge.RunDocument `json:"document,omitempty"`
		Error    string               `json:"error,omitempty"`
	}

	total, done := len(ids)*replicas, 0
	line(planEvent{Type: "plan", Total: total, Seed: seed, Replicas: replicas})
	doc := &atlarge.RunDocument{Seed: seed}
	for _, j := range jobs {
		err := j.watch(r.Context(), func(id string) {
			done++
			line(taskEvent{Type: "task", ID: id, Done: done, Total: total})
		})
		if err != nil {
			line(resultEvent{Type: "error", Error: err.Error()})
			return
		}
		doc.Experiments = append(doc.Experiments, j.exp)
	}
	line(resultEvent{Type: "result", Document: doc})
}

// jobWork is one job a request asks the table for: the job's identity and
// plan size, and what the job runner needs to run it — a sweep's spec and
// cells, or a run's experiment (its name).
type jobWork struct {
	id, kind, name string
	total          int
	seed           int64 // effective seed
	replicas       int   // effective replica count
	spec           *scenario.Spec
	cells          []scenario.Scenario
}

// runJobID names the run job of one (experiment, seed, replicas). The "run-"
// prefix can never begin a sweep job's hex content hash, so the two kinds
// share one ID space without colliding.
func runJobID(exp string, seed int64, replicas int) string {
	return "run-" + exp + "-s" + strconv.FormatInt(seed, 10) + "-r" + strconv.Itoa(replicas)
}

// runWorks is the run job of each requested experiment, in request order.
func (s *Server) runWorks(ids []string, seed int64, replicas int) []jobWork {
	works := make([]jobWork, len(ids))
	for i, id := range ids {
		works[i] = jobWork{id: runJobID(id, seed, replicas), kind: jobKindRun, name: id, total: replicas, seed: seed, replicas: replicas}
	}
	return works
}

// sweepWork applies the checks shared by both sweep entry points (sync and
// /v1/jobs) — a usable state dir, the replica bound, a valid spec — and
// resolves the sweep job, writing the error response itself on failure.
// The effective replica count (request, else spec, else 1) is bounded, so a
// spec body declaring a huge "replicas" is rejected exactly like a huge
// request parameter. scenario.Expand validates the spec first, and
// validation bounds the sweep at scenario.MaxCells from its axis
// cardinalities alone, so a degenerate spec cannot make the server allocate
// its cross-product.
func (s *Server) sweepWork(w http.ResponseWriter, spec *scenario.Spec, seed *int64, replicas int) (jobWork, bool) {
	if s.storeErr != nil {
		// Refuse rather than silently accepting volatile work on a server
		// that promised durability.
		writeError(w, http.StatusInternalServerError, errInternal, "%v", s.storeErr)
		return jobWork{}, false
	}
	eff, replicas := scenario.Effective(spec, scenario.Options{Seed: seed, Replicas: replicas})
	if replicas > maxReplicas {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", maxReplicas)
		return jobWork{}, false
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return jobWork{}, false
	}
	id, err := scenario.RunHash(spec, eff, replicas)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return jobWork{}, false
	}
	return jobWork{
		id: id, kind: jobKindSweep, name: spec.Name, total: len(cells) * replicas,
		seed: eff, replicas: replicas, spec: spec, cells: cells,
	}, true
}

// parseSweepRequest validates a synchronous sweep request — body spec plus
// seed/replicas query parameters — writing the error response itself on
// failure.
func (s *Server) parseSweepRequest(w http.ResponseWriter, r *http.Request) (jobWork, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	spec, err := scenario.Parse(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, errPayloadTooLarge, "spec body exceeds %d bytes", tooBig.Limit)
			return jobWork{}, false
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return jobWork{}, false
	}
	q := r.URL.Query()
	var seed *int64
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadRequest, "bad seed: %v", err)
			return jobWork{}, false
		}
		seed = &v
	}
	replicas := 0
	if raw := q.Get("replicas"); raw != "" {
		replicas, err = strconv.Atoi(raw)
		if err != nil || replicas < 1 {
			writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", maxReplicas)
			return jobWork{}, false
		}
	}
	return s.sweepWork(w, spec, seed, replicas)
}

func (s *Server) handleScenarioSweep(w http.ResponseWriter, r *http.Request) {
	// The async flag is gone; refuse it rather than silently running the
	// sweep synchronously on a client that expects a job ID back at once.
	if r.URL.Query().Has("async") {
		writeError(w, http.StatusBadRequest, errBadRequest,
			"the async parameter is removed; submit asynchronous sweeps to POST /v1/jobs")
		return
	}
	if !s.adm.admitClient(w, r) {
		return
	}
	work, ok := s.parseSweepRequest(w, r)
	if !ok {
		return
	}
	jobs, _, ok := s.launch(w, []jobWork{work}, false)
	if !ok {
		return
	}
	defer s.release(jobs)
	if err := jobs[0].watch(r.Context(), nil); err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	s.writeJobResult(w, jobs[0])
}

// jobRequest is the body of POST /v1/jobs: a kind, its spec, and optional
// seed/replicas overrides (which otherwise fall back to the spec's values).
type jobRequest struct {
	Kind     string          `json:"kind"`
	Spec     json.RawMessage `json:"spec"`
	Seed     *int64          `json:"seed,omitempty"`
	Replicas int             `json:"replicas,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.adm.admitClient(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, errPayloadTooLarge, "job body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "bad job request: %v", err)
		return
	}
	if req.Kind != jobKindSweep {
		writeError(w, http.StatusBadRequest, errBadRequest, "unknown job kind %q (submittable kinds: %s)", req.Kind, jobKindSweep)
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, errBadRequest, "job request carries no spec")
		return
	}
	if req.Replicas < 0 {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", maxReplicas)
		return
	}
	spec, err := scenario.Parse(bytes.NewReader(req.Spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	work, ok := s.sweepWork(w, spec, req.Seed, req.Replicas)
	if !ok {
		return
	}
	jobs, prior, ok := s.launch(w, []jobWork{work}, true)
	if !ok {
		return
	}
	status := http.StatusOK // deduped onto an existing job
	if prior[0] == "" {
		status = http.StatusAccepted
	}
	writeJSON(w, status, jobs[0].doc())
}

// launch resolves each work item to its job, all or none: it joins a
// running or done job with the work's ID, or creates and starts one. Failed
// and cancelled jobs do not absorb new requests; a fresh attempt relaunches
// under the same ID. hold marks a POST /v1/jobs submission, which keeps its
// job running with no request waiting; every other caller waits on the
// returned jobs and must release them. prior is each job's state before
// the call, or "" for a job this call created — or, for a submission, is
// the first to hold.
//
// Refusals are written by launch itself, before anything is joined: a full
// pending-task queue refuses requests that would create a job (joining one
// never adds work), and MaxJobs refuses submissions that would take hold
// of one more running job.
func (s *Server) launch(w http.ResponseWriter, works []jobWork, hold bool) (jobs []*job, prior []string, ok bool) {
	s.jobMu.Lock()
	creates, holds := 0, 0
	for i := range works {
		if j, state := s.liveJobLocked(works[i].id); j == nil {
			creates++
		} else if hold && j.ephemeral && state == jobRunning {
			holds++
		}
	}
	if pending := s.stats.Pending(); creates > 0 && pending >= s.adm.maxQueue {
		s.jobMu.Unlock()
		s.adm.refuseQueue(w, pending)
		return nil, nil, false
	}
	if hold && creates+holds > 0 {
		if held := s.heldRunningLocked(); held >= s.cfg.MaxJobs {
			s.jobMu.Unlock()
			retry := s.adm.drainEstimate(s.stats.Pending() + int64(works[0].total))
			writeRetryError(w, http.StatusTooManyRequests, errJobLimit, retry,
				"%d job(s) already running (limit %d); retry later or cancel one", held, s.cfg.MaxJobs)
			return nil, nil, false
		}
	}
	jobs, prior = make([]*job, len(works)), make([]string, len(works))
	for i := range works {
		j, state := s.liveJobLocked(works[i].id)
		if j == nil {
			j = s.startJob(&works[i], !hold)
			s.putLocked(j)
		}
		if hold {
			if j.ephemeral {
				state = ""
			}
			j.ephemeral = false
		} else {
			j.waiters++
		}
		jobs[i], prior[i] = j, state
	}
	s.jobMu.Unlock()
	return jobs, prior, true
}

// startJob starts the job of one work item on its own goroutine;
// ephemeral marks a job no POST /v1/jobs submission holds.
func (s *Server) startJob(work *jobWork, ephemeral bool) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id: work.id, kind: work.kind, name: work.name, seed: work.seed, cancel: cancel,
		state: jobRunning, total: work.total, exited: make(chan struct{}), ephemeral: ephemeral,
	}
	go s.runJob(ctx, j, work)
	return j
}

// liveJobLocked returns the table's job under id and its state when that job
// is running or done — the states a request joins — and nil otherwise.
// Caller holds jobMu.
func (s *Server) liveJobLocked(id string) (*job, string) {
	j, ok := s.jobs[id]
	if !ok {
		return nil, ""
	}
	if st := j.currentState(); st == jobRunning || st == jobDone {
		return j, st
	}
	return nil, ""
}

// heldRunningLocked counts the running jobs a POST /v1/jobs submission
// holds. Caller holds jobMu.
func (s *Server) heldRunningLocked() int {
	n := 0
	for _, j := range s.jobs {
		if !j.ephemeral && j.currentState() == jobRunning {
			n++
		}
	}
	return n
}

// release ends one waiting request's interest in each of its jobs. A job
// left running with no waiter and no POST hold is cancelled, so a client
// hanging up stops work nobody else wants; a later identical request
// relaunches it.
func (s *Server) release(jobs []*job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	for _, j := range jobs {
		j.waiters--
		if j.waiters == 0 && j.ephemeral {
			j.markCancelled()
		}
	}
}

// runJob is the one job runner: it executes a job's work — a run through
// the experiment Runner, a sweep through scenario.Run (across the connected
// workers, if any) — and settles the job, then closes j.exited: past that
// point nothing writes to the job's state dir. With a state dir, a sweep's
// record is written before it runs and its outcome after; a sweep that
// cannot be made durable fails instead of running as volatile work.
func (s *Server) runJob(ctx context.Context, j *job, work *jobWork) {
	defer close(j.exited)
	defer j.cancel()
	if work.kind == jobKindRun {
		runner := &atlarge.Runner{
			Registry:     s.cfg.Registry,
			Parallelism:  s.cfg.Parallelism,
			Replicas:     work.replicas,
			Stats:        s.stats,
			Progress:     j.progress,
			SpanObserver: j.observeSpan,
		}
		results, err := runner.RunContext(ctx, []string{work.name}, work.seed)
		var res atlarge.ExperimentResult
		if err == nil {
			res = atlarge.NewRunDocument(work.seed, results).Experiments[0]
		}
		j.finishRun(res, err)
		return
	}
	opt := scenario.Options{
		Parallelism:  s.cfg.Parallelism,
		Seed:         &work.seed, // the effective seed; RunHash stays j.id
		Replicas:     work.replicas,
		Stats:        s.stats,
		Progress:     j.progress,
		SpanObserver: j.observeSpan,
	}
	var err error
	if s.store != nil {
		opt.Checkpoint = s.store.dir
		var specJSON []byte
		if specJSON, err = json.Marshal(work.spec); err == nil {
			err = s.store.saveRecord(&jobRecord{
				ID: work.id, Kind: jobKindSweep, Name: work.name, Domain: work.spec.Domain,
				Seed: work.seed, Replicas: work.replicas, Total: work.total,
				State: jobRunning, Spec: specJSON,
			})
		}
	}
	if err == nil && len(s.distClients) > 0 {
		err = scenario.Distribute(&opt, work.spec, s.distClients, s.distStats)
	}
	var result []byte
	if err == nil {
		var rep *scenario.Report
		if rep, err = scenario.Run(ctx, work.spec, work.cells, opt); err == nil {
			var buf bytes.Buffer
			if err = rep.WriteJSON(&buf); err == nil {
				result = buf.Bytes()
			}
		}
	}
	j.finish(result, err)
	s.persistOutcome(j)
}

// persistOutcome records a settled sweep job's terminal state (and result
// bytes) in the state dir; a no-op without one and for run jobs.
// Persistence failures here are swallowed: the in-memory job still serves,
// only restart durability of this outcome is lost.
func (s *Server) persistOutcome(j *job) {
	if s.store == nil || j.kind == jobKindRun {
		return
	}
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	if state == jobRunning {
		return
	}
	if state == jobDone {
		if raw, ok := j.resultBytes(); ok {
			if err := s.store.saveResult(j.id, raw); err != nil {
				return // job.json keeps saying running → restart resumes it
			}
		}
	}
	rec, err := s.store.loadRecord(j.id)
	if err != nil {
		return
	}
	rec.State = state
	rec.Error = errMsg
	_ = s.store.saveRecord(rec)
}

// RecoverJobs re-lists the state directory into the job table: finished
// jobs serve their stored results again, and jobs that were running when
// the process died re-launch and resume from their checkpointed (cell,
// replica) tasks to a byte-identical result. Call it once, before serving
// traffic. Interrupted jobs resume regardless of MaxJobs — they were
// admitted before the restart. Returns the number of jobs resumed
// (relaunched) and restored (terminal, re-listed), and the error that made
// an unusable Config.StateDir refuse every submission.
func (s *Server) RecoverJobs() (resumed, restored int, err error) {
	if s.store == nil {
		return 0, 0, s.storeErr
	}
	recs, listErr := s.store.list()
	if listErr != nil {
		return 0, 0, listErr
	}
	var problems []error
	for _, rec := range recs {
		switch rec.State {
		case jobDone:
			raw, ok := s.store.loadResult(rec.ID)
			if !ok {
				// Killed between the result write and the record update —
				// or the other way round; resuming re-derives the result
				// from the checkpointed tasks either way.
				if rerr := s.resumeJob(rec); rerr != nil {
					problems = append(problems, rerr)
					continue
				}
				resumed++
				continue
			}
			s.addRecovered(&job{
				id: rec.ID, kind: rec.Kind, name: rec.Name, cancel: func() {},
				state: jobDone, done: rec.Total, total: rec.Total, result: raw,
			})
			restored++
		case jobFailed, jobCancelled:
			s.addRecovered(&job{
				id: rec.ID, kind: rec.Kind, name: rec.Name, cancel: func() {},
				state: rec.State, total: rec.Total, errMsg: rec.Error,
			})
			restored++
		case jobRunning:
			if rerr := s.resumeJob(rec); rerr != nil {
				problems = append(problems, rerr)
				continue
			}
			resumed++
		}
	}
	return resumed, restored, errors.Join(problems...)
}

// resumeJob relaunches one interrupted job from its durable record; the
// checkpoint store replays its completed tasks, so only lost work re-runs.
// The record is checked as a submission would be before anything is laid
// out: only a sweep job of 1 to maxReplicas replicas whose valid spec,
// seed and replicas hash to its ID (the checkpoint directory it resumes
// from) and whose total counts its tasks is relaunched. Any other record
// is reported as a problem and left alone.
func (s *Server) resumeJob(rec *jobRecord) error {
	if rec.Kind != jobKindSweep {
		return fmt.Errorf("api: recover job %s: kind %q, only %s jobs resume", rec.ID, rec.Kind, jobKindSweep)
	}
	if rec.Replicas < 1 || rec.Replicas > maxReplicas {
		return fmt.Errorf("api: recover job %s: replicas %d, must be in 1..%d", rec.ID, rec.Replicas, maxReplicas)
	}
	spec, err := scenario.Parse(bytes.NewReader(rec.Spec))
	if err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	id, err := scenario.RunHash(spec, rec.Seed, rec.Replicas)
	if err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	if id != rec.ID {
		return fmt.Errorf("api: recover job %s: its spec, seed and replicas hash to %s", rec.ID, id)
	}
	if want := len(cells) * rec.Replicas; rec.Total != want {
		return fmt.Errorf("api: recover job %s: total %d, its plan has %d tasks", rec.ID, rec.Total, want)
	}
	work := &jobWork{
		id: rec.ID, kind: rec.Kind, name: rec.Name, total: rec.Total,
		seed: rec.Seed, replicas: rec.Replicas, spec: spec, cells: cells,
	}
	s.addRecovered(s.startJob(work, false))
	return nil
}

// addRecovered enters a recovered job in the table.
func (s *Server) addRecovered(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.putLocked(j)
}

// putLocked enters j in the table under its ID, replacing a failed or
// cancelled predecessor, and evicts finished jobs beyond Config.KeepJobs.
// Caller holds jobMu.
func (s *Server) putLocked(j *job) {
	if _, seen := s.jobs[j.id]; !seen {
		s.jobOrder = append(s.jobOrder, j.id)
	}
	s.jobs[j.id] = j
	s.evictFinishedLocked()
}

// maxEvicted bounds the evicted-ID memory behind 410 result_evicted.
const maxEvicted = 4096

// evictFinishedLocked drops the oldest finished jobs beyond Config.KeepJobs,
// remembering their IDs so a later result fetch explains the eviction (410
// result_evicted) instead of claiming the job never existed; running jobs
// are never evicted. Caller holds jobMu.
func (s *Server) evictFinishedLocked() {
	for len(s.jobs) > s.cfg.KeepJobs {
		evictedOne := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evictedOne = true
				break
			}
			if j.currentState() != jobRunning {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				s.noteEvictedLocked(id)
				evictedOne = true
				break
			}
		}
		if !evictedOne {
			return // everything still running
		}
	}
}

// noteEvictedLocked remembers an evicted job ID (bounded FIFO). Caller
// holds jobMu.
func (s *Server) noteEvictedLocked(id string) {
	if s.evicted[id] {
		return
	}
	s.evicted[id] = true
	s.evictedOrder = append(s.evictedOrder, id)
	for len(s.evictedOrder) > maxEvicted {
		delete(s.evicted, s.evictedOrder[0])
		s.evictedOrder = s.evictedOrder[1:]
	}
}

// getJob resolves the {id} path value, writing the 404 — or, for a job
// evicted from the finished-job history, the explanatory 410 — itself.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	wasEvicted := s.evicted[id]
	s.jobMu.Unlock()
	if !ok {
		if wasEvicted {
			writeError(w, http.StatusGone, errResultEvicted,
				"job %s finished but was evicted from the %d-entry finished-job history; resubmit to recompute it", id, s.cfg.KeepJobs)
			return nil, false
		}
		writeError(w, http.StatusNotFound, errNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	if filter != "" && !slices.Contains(jobStates, filter) {
		writeError(w, http.StatusBadRequest, errBadRequest,
			"unknown state %q (want one of %s)", filter, strings.Join(jobStates, ", "))
		return
	}
	s.jobMu.Lock()
	docs := make([]jobDoc, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		d := j.doc()
		if filter != "" && d.State != filter {
			continue
		}
		docs = append(docs, d)
	}
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]jobDoc{"jobs": docs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.getJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.doc())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	s.writeJobResult(w, j)
}

// writeJobResult serves a job's result — a sweep's report bytes, a run's
// RunDocument — or the typed not-ready error: 409 job_running while work
// is in flight, 410 job_failed/job_cancelled for terminal jobs that will
// never produce one.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	raw, ready := j.resultBytes()
	if ready && j.kind == jobKindRun {
		writeJSON(w, http.StatusOK, &atlarge.RunDocument{Seed: j.seed, Experiments: []atlarge.ExperimentResult{j.exp}})
		return
	}
	if !ready {
		st := j.doc()
		switch st.State {
		case jobFailed:
			writeError(w, http.StatusGone, errJobFailed, "job %s failed: %s", j.id, st.Error)
		case jobCancelled:
			writeError(w, http.StatusGone, errJobCancelled, "job %s was cancelled", j.id)
		default:
			writeError(w, http.StatusConflict, errJobRunning,
				"job %s is still %s (%d/%d tasks)", j.id, st.State, st.Done, st.Total)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// handleJobProfile serves the job's execution profile: span aggregates
// (queue wait, run time, per-worker busy time) collected while the job's
// tasks stream through the executor. Available while the job is still
// running — the aggregates are incremental — and after it settles. Jobs
// restored from the state dir after a restart report zero observed tasks:
// spans are wall-clock facts of one execution and are not persisted.
func (s *Server) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.getJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.profileDoc())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	j.markCancelled()
	s.persistOutcome(j)
	writeJSON(w, http.StatusOK, j.doc())
}

// splitIDs parses the comma-separated ids parameter.
func splitIDs(raw string) []string {
	var out []string
	for _, id := range strings.Split(raw, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func queryInt64(raw string, def int64) (int64, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.ParseInt(raw, 10, 64)
}

func queryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// writeJSON emits a JSON body with the canonical two-space indent, matching
// the CLI byte for byte.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
