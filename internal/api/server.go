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

// Config tunes a Server.
type Config struct {
	// Registry supplies the experiment catalog; nil means the default
	// built-in catalog.
	Registry *atlarge.Registry
	// Parallelism bounds the worker pool behind /v1/run and sweeps; <= 0
	// means GOMAXPROCS.
	Parallelism int
	// CacheSize caps the LRU result cache (entries, one per cached
	// (experiment, seed, replicas) triple); <= 0 means 256.
	CacheSize int
	// MaxReplicas rejects run requests asking for more replicas; <= 0
	// means 64.
	MaxReplicas int
	// MaxCells rejects sweep specs whose axis cardinalities alone multiply
	// to more cells, before any cell is materialized; <= 0 means 4096.
	// Values above 4096 (the scenario engine's own hard expansion bound)
	// are clamped to it.
	MaxCells int
	// MaxJobs bounds concurrently running async jobs; <= 0 means 4.
	MaxJobs int
	// KeepJobs bounds the finished-job history retained for status
	// queries; the oldest finished jobs beyond it are evicted (their IDs
	// are remembered, so fetching an evicted result is 410 result_evicted,
	// not 404). <= 0 means 64.
	KeepJobs int
	// Rate is the per-client admission rate for work-submitting endpoints
	// (requests/second, token bucket keyed by X-Atlarge-Client or remote
	// host); <= 0 disables rate limiting.
	Rate float64
	// Burst is the token bucket capacity; <= 0 means max(1, ceil(Rate)).
	Burst int
	// QueueDepth bounds the pending-task queue across all work the server
	// is running: submissions that would push past it are refused with 429
	// and a computed Retry-After. <= 0 means 4096.
	QueueDepth int
	// StateDir, when non-empty, makes jobs durable: specs and state
	// persist under this directory (shared with the sweep checkpoint
	// store, so a job's partial results live next to its record), and
	// RecoverJobs resumes interrupted jobs after a restart.
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

// runKey identifies one cached experiment result: results are cached per
// experiment, not per request, so overlapping id sets share entries.
type runKey struct {
	id       string
	seed     int64
	replicas int
}

// Server is the HTTP face of the Results API:
//
//	GET    /v1/experiments                     the experiment catalog
//	GET    /v1/run?ids=&seed=&replicas=        typed run results (LRU-cached)
//	GET    /v1/run/stream?ids=&seed=&replicas= the same run as live NDJSON progress events
//	POST   /v1/scenario/sweep?seed=&replicas=  expand + run a scenario spec body synchronously
//	POST   /v1/jobs                            submit async work ({"kind","spec","seed"?,"replicas"?})
//	GET    /v1/jobs?state=                     list jobs, optionally filtered by state
//	GET    /v1/jobs/{id}                       one job's resource document
//	GET    /v1/jobs/{id}/result                the finished job's report (sync-identical bytes)
//	GET    /v1/jobs/{id}/profile               the job's execution profile (span aggregates)
//	DELETE /v1/jobs/{id}                       cancel a running job mid-plan
//	GET    /metrics                            Prometheus text-format server metrics
//
// Job IDs are the content hash of (spec, seed, replicas) — the same hash
// the sweep checkpoint store uses — so identical sweeps submitted by
// concurrent clients dedup onto one job, and with Config.StateDir set jobs
// survive restarts: RecoverJobs re-lists finished jobs and resumes
// interrupted ones byte-identically from their checkpointed tasks.
//
// All responses are JSON; errors use the typed envelope
// {"error": {"code", "message", "retry_after"?}}. Run results are
// byte-identical for a fixed query at any parallelism and across cache hits
// and misses, and an async job's result is byte-identical to the
// synchronous sweep response for the same spec.
type Server struct {
	cfg      Config
	cache    *lruCache[runKey, atlarge.ExperimentResult]
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

	// mu guards inflight (and makes the cache-lookup/flight-registration
	// pair atomic): concurrent identical misses coalesce onto one flight
	// instead of re-running the same simulation.
	mu       sync.Mutex
	inflight map[runKey]*flight

	// jobMu guards the async job table and the evicted-ID memory.
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

// flight is one in-progress computation of a runKey; waiters block on done.
type flight struct {
	done chan struct{}
	res  atlarge.ExperimentResult
	err  error
}

// New returns a ready-to-serve Server. With Config.StateDir set, call
// RecoverJobs before serving traffic to re-list and resume persisted jobs;
// New itself never launches work.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = atlarge.DefaultRegistry()
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 64
	}
	if cfg.MaxCells <= 0 || cfg.MaxCells > scenario.MaxCells {
		cfg.MaxCells = scenario.MaxCells
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	s := &Server{
		cfg:       cfg,
		cache:     newLRU[runKey, atlarge.ExperimentResult](cfg.CacheSize),
		mux:       http.NewServeMux(),
		stats:     &exec.Stats{},
		inflight:  make(map[runKey]*flight),
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

// maybeDistribute routes a sweep's execution across the connected workers by
// installing the dispatcher as the run's executor; a no-op without workers,
// leaving the in-process pool in place.
func (s *Server) maybeDistribute(opt *scenario.Options, spec *scenario.Spec) error {
	if len(s.distClients) == 0 {
		return nil
	}
	return scenario.Distribute(opt, spec, s.distClients, s.distStats)
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
		"Run-result LRU cache hits.")
	s.mCacheMisses = m.Counter("atlarge_cache_misses_total",
		"Run-result LRU cache misses.")
	m.GaugeFunc("atlarge_cache_hit_ratio",
		"Fraction of run-result cache lookups served from cache.", func() float64 {
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
	if replicas < 1 || replicas > s.cfg.MaxReplicas {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", s.cfg.MaxReplicas)
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
	if !ok {
		return
	}
	if !s.adm.admitClient(w, r) {
		return
	}

	// Serve each experiment from the (id, seed, replicas) cache. Misses
	// either join an identical in-flight computation (so two concurrent
	// queries for the slow tab9 simulate it once) or are claimed by this
	// request and computed in one runner invocation, fanning out over the
	// worker pool. Queue backpressure applies only when this request would
	// actually enqueue work: fully cached (or coalesced) requests are
	// served even under overload.
	results := make(map[string]atlarge.ExperimentResult, len(ids))
	owned := make(map[string]*flight)
	joined := make(map[string]*flight)
	s.mu.Lock()
	wouldRun := false
	for _, id := range ids {
		key := runKey{id, seed, replicas}
		if _, ok := s.cache.Get(key); ok {
			continue
		}
		if _, ok := s.inflight[key]; ok {
			continue
		}
		wouldRun = true
		break
	}
	if wouldRun && s.stats.Pending() >= int64(s.cfg.QueueDepth) {
		s.mu.Unlock()
		s.adm.admitQueue(w) // writes the 429 + Retry-After envelope
		return
	}
	for _, id := range ids {
		key := runKey{id, seed, replicas}
		if res, ok := s.cache.Get(key); ok {
			results[id] = res
			s.mCacheHits.Inc()
			continue
		}
		if f, ok := s.inflight[key]; ok {
			joined[id] = f
			continue
		}
		s.mCacheMisses.Inc()
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		owned[id] = f
	}
	s.mu.Unlock()

	var runErr error
	if len(owned) > 0 {
		// Keyed off the owned set (not ids) so a duplicated id in the query
		// runs once; result bytes are order-independent because seeds derive
		// from (baseSeed, id, replica) alone.
		toRun := make([]string, 0, len(owned))
		for id := range owned {
			toRun = append(toRun, id)
		}
		runner := &atlarge.Runner{
			Registry:    s.cfg.Registry,
			Parallelism: s.cfg.Parallelism,
			Replicas:    replicas,
			Stats:       s.stats,
		}
		runResults, err := runner.Run(toRun, seed)
		runErr = err
		byID := make(map[string]atlarge.ExperimentResult)
		if runResults != nil {
			for _, res := range atlarge.NewRunDocument(seed, runResults).Experiments {
				byID[res.ID] = res
			}
		}
		// Settle every owned flight — success or failure — before any
		// early return, so joined waiters never block forever.
		s.mu.Lock()
		for id, f := range owned {
			key := runKey{id, seed, replicas}
			if res, ok := byID[id]; ok {
				f.res = res
				s.cache.Put(key, res)
				results[id] = res
			} else {
				f.err = err
				if f.err == nil {
					f.err = fmt.Errorf("atlarge: experiment %s produced no result", id)
				}
				runErr = f.err
			}
			delete(s.inflight, key)
			close(f.done)
		}
		s.mu.Unlock()
	}
	for id, f := range joined {
		<-f.done
		if f.err != nil && runErr == nil {
			runErr = f.err
		}
		results[id] = f.res
	}
	if runErr != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", runErr)
		return
	}

	doc := &atlarge.RunDocument{Seed: seed}
	for _, id := range ids {
		doc.Experiments = append(doc.Experiments, results[id])
	}
	cacheState := "hit"
	if misses := len(owned) + len(joined); misses == len(ids) {
		cacheState = "miss"
	} else if misses > 0 {
		cacheState = "partial"
	}
	w.Header().Set("X-Atlarge-Cache", cacheState)
	writeJSON(w, http.StatusOK, doc)
}

// handleRunStream is the live form of /v1/run: the same validated query,
// but the response is NDJSON — one "plan" line, one "task" line per
// (experiment, replica) completion as it streams out of the executor, and a
// final "result" line carrying the full RunDocument (or an "error" line).
// The connection's context cancels the run, so a client hanging up stops
// the simulation instead of orphaning it.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	ids, seed, replicas, ok := s.parseRunQuery(w, r)
	if !ok {
		return
	}
	// Streams always simulate live, so both admission checks apply.
	if !s.adm.admit(w, r) {
		return
	}
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

	line(planEvent{Type: "plan", Total: len(ids) * replicas, Seed: seed, Replicas: replicas})
	runner := &atlarge.Runner{
		Registry:    s.cfg.Registry,
		Parallelism: s.cfg.Parallelism,
		Replicas:    replicas,
		Stats:       s.stats,
		Progress: func(done, total int, id string) {
			line(taskEvent{Type: "task", ID: id, Done: done, Total: total})
		},
	}
	results, err := runner.RunContext(r.Context(), ids, seed)
	if err != nil {
		line(resultEvent{Type: "error", Error: err.Error()})
		return
	}
	doc := atlarge.NewRunDocument(seed, results)
	// Streams feed the (id, seed, replicas) cache so subsequent /v1/run
	// queries are answered without re-running.
	for _, res := range doc.Experiments {
		s.cache.Put(runKey{res.ID, seed, replicas}, res)
	}
	line(resultEvent{Type: "result", Document: doc})
}

// boundSweep applies the replica and cell bounds shared by both sweep
// entry points (sync and /v1/jobs), pinning the effective replica
// count into opt and writing the error response itself on failure. The cell
// bound is enforced from the sweep's axis cardinalities alone, before any
// cell is materialized, so a degenerate spec cannot make the server
// allocate its cross-product.
func (s *Server) boundSweep(w http.ResponseWriter, spec *scenario.Spec, opt *scenario.Options) ([]scenario.Scenario, bool) {
	// Pin the effective replica count (request, else spec, else 1) so the
	// bound covers both sources — a spec body declaring a huge "replicas"
	// must be rejected exactly like a huge request parameter.
	if opt.Replicas <= 0 {
		opt.Replicas = max(spec.Replicas, 1)
	}
	if opt.Replicas > s.cfg.MaxReplicas {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", s.cfg.MaxReplicas)
		return nil, false
	}
	if size := scenario.SweepSize(spec); size > s.cfg.MaxCells {
		writeError(w, http.StatusBadRequest, errBadRequest,
			"sweep axis cardinalities multiply to more than this server's limit of %d cells; split the sweep", s.cfg.MaxCells)
		return nil, false
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return nil, false
	}
	return cells, true
}

// parseSweepRequest validates a synchronous sweep request — body spec plus
// seed/replicas query parameters — writing the error response itself on
// failure.
func (s *Server) parseSweepRequest(w http.ResponseWriter, r *http.Request) (*scenario.Spec, []scenario.Scenario, scenario.Options, bool) {
	none := scenario.Options{}
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	spec, err := scenario.Parse(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, errPayloadTooLarge, "spec body exceeds %d bytes", tooBig.Limit)
			return nil, nil, none, false
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return nil, nil, none, false
	}
	q := r.URL.Query()
	opt := scenario.Options{Parallelism: s.cfg.Parallelism}
	if raw := q.Get("seed"); raw != "" {
		seed, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadRequest, "bad seed: %v", err)
			return nil, nil, none, false
		}
		opt.Seed = &seed
	}
	if raw := q.Get("replicas"); raw != "" {
		replicas, err := strconv.Atoi(raw)
		if err != nil || replicas < 1 {
			writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", s.cfg.MaxReplicas)
			return nil, nil, none, false
		}
		opt.Replicas = replicas
	}
	cells, ok := s.boundSweep(w, spec, &opt)
	if !ok {
		return nil, nil, none, false
	}
	return spec, cells, opt, true
}

func (s *Server) handleScenarioSweep(w http.ResponseWriter, r *http.Request) {
	// The async flag is gone; refuse it rather than silently running the
	// sweep synchronously on a client that expects a job ID back at once.
	if r.URL.Query().Has("async") {
		writeError(w, http.StatusBadRequest, errBadRequest,
			"the async parameter is removed; submit asynchronous sweeps to POST /v1/jobs")
		return
	}
	if !s.adm.admit(w, r) {
		return
	}
	spec, cells, opt, ok := s.parseSweepRequest(w, r)
	if !ok {
		return
	}
	opt.Stats = s.stats
	if err := s.maybeDistribute(&opt, spec); err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	rep, err := scenario.Run(r.Context(), spec, cells, opt)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = rep.WriteJSON(w)
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
	if !s.adm.admit(w, r) {
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
		writeError(w, http.StatusBadRequest, errBadRequest, "unknown job kind %q (known kinds: %s)", req.Kind, jobKindSweep)
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, errBadRequest, "job request carries no spec")
		return
	}
	if req.Replicas < 0 {
		writeError(w, http.StatusBadRequest, errBadRequest, "replicas must be in 1..%d", s.cfg.MaxReplicas)
		return
	}
	spec, err := scenario.Parse(bytes.NewReader(req.Spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	opt := scenario.Options{Parallelism: s.cfg.Parallelism, Seed: req.Seed, Replicas: req.Replicas}
	cells, ok := s.boundSweep(w, spec, &opt)
	if !ok {
		return
	}
	j, created, ok := s.launchJob(w, spec, cells, opt)
	if !ok {
		return
	}
	status := http.StatusOK // deduped onto an existing job
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, j.doc())
}

// launchJob registers and starts one async job, or dedups onto an existing
// one: the job ID is scenario.RunHash(spec, seed, replicas) — the sweep
// checkpoint key — so identical submissions share a single execution (and,
// with a state dir, a single durable record). Failed and cancelled jobs do
// not absorb resubmissions; a fresh attempt relaunches under the same ID.
// Errors (job limit, persistence failure) are written by launchJob itself;
// the caller renders the success response from the returned job.
func (s *Server) launchJob(w http.ResponseWriter, spec *scenario.Spec, cells []scenario.Scenario, opt scenario.Options) (_ *job, created, ok bool) {
	if s.storeErr != nil {
		// Refuse rather than silently accepting volatile work on a server
		// that promised durability.
		writeError(w, http.StatusInternalServerError, errInternal, "%v", s.storeErr)
		return nil, false, false
	}
	seed, replicas := scenario.Effective(spec, opt)
	id, err := scenario.RunHash(spec, seed, replicas)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return nil, false, false
	}
	total := len(cells) * replicas

	s.jobMu.Lock()
	if existing, found := s.jobs[id]; found {
		if st := existing.currentState(); st == jobRunning || st == jobDone {
			s.jobMu.Unlock()
			return existing, false, true
		}
	}
	running := 0
	for _, j := range s.jobs {
		if j.currentState() == jobRunning {
			running++
		}
	}
	if running >= s.cfg.MaxJobs {
		s.jobMu.Unlock()
		retry := s.adm.drainEstimate(s.stats.Pending() + int64(total))
		writeRetryError(w, http.StatusTooManyRequests, errJobLimit, retry,
			"%d job(s) already running (limit %d); retry later or cancel one", running, s.cfg.MaxJobs)
		return nil, false, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: id, kind: jobKindSweep, name: spec.Name, cancel: cancel, state: jobRunning, total: total, exited: make(chan struct{})}
	if _, seen := s.jobs[id]; !seen {
		s.jobOrder = append(s.jobOrder, id)
	}
	s.jobs[id] = j
	s.evictFinishedLocked()
	s.jobMu.Unlock()

	if s.store != nil {
		specJSON, err := json.Marshal(spec)
		if err == nil {
			err = s.store.saveRecord(&jobRecord{
				ID: id, Kind: jobKindSweep, Name: spec.Name, Domain: spec.Domain,
				Seed: seed, Replicas: replicas, Total: total,
				State: jobRunning, Spec: specJSON,
			})
		}
		if err != nil {
			// Refuse rather than silently accepting volatile work on a
			// server that promised durability.
			cancel()
			s.jobMu.Lock()
			delete(s.jobs, id)
			s.jobMu.Unlock()
			writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
			return nil, false, false
		}
		opt.Checkpoint = s.store.dir
	}
	opt.Stats = s.stats
	if err := s.maybeDistribute(&opt, spec); err != nil {
		cancel()
		s.jobMu.Lock()
		delete(s.jobs, id)
		s.jobMu.Unlock()
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return nil, false, false
	}
	go s.runJob(ctx, cancel, j, spec, cells, opt)
	return j, true, true
}

// runJob executes one job's sweep and settles + persists its outcome, then
// closes j.exited: past that point nothing writes to the job's state dir.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, spec *scenario.Spec, cells []scenario.Scenario, opt scenario.Options) {
	defer close(j.exited)
	defer cancel()
	opt.Progress = func(done, total int, id string) { j.progress(done, total) }
	opt.SpanObserver = j.observeSpan
	rep, err := scenario.Run(ctx, spec, cells, opt)
	var result []byte
	if err == nil {
		var buf bytes.Buffer
		if werr := rep.WriteJSON(&buf); werr != nil {
			err = werr
		} else {
			result = buf.Bytes()
		}
	}
	j.finish(result, err)
	s.persistOutcome(j)
}

// persistOutcome records a settled job's terminal state (and result bytes)
// in the state dir; a no-op without one. Persistence failures here are
// swallowed: the in-memory job still serves, only restart durability of
// this outcome is lost.
func (s *Server) persistOutcome(j *job) {
	if s.store == nil {
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
func (s *Server) resumeJob(rec *jobRecord) error {
	spec, err := scenario.Parse(bytes.NewReader(rec.Spec))
	if err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: rec.ID, kind: rec.Kind, name: rec.Name, cancel: cancel, state: jobRunning, total: rec.Total, exited: make(chan struct{})}
	s.addRecovered(j)
	opt := scenario.Options{
		Parallelism: s.cfg.Parallelism,
		Replicas:    rec.Replicas,
		Seed:        &rec.Seed, // the effective seed; RunHash stays rec.ID
		Checkpoint:  s.store.dir,
		Stats:       s.stats,
	}
	if err := s.maybeDistribute(&opt, spec); err != nil {
		return fmt.Errorf("api: recover job %s: %w", rec.ID, err)
	}
	go s.runJob(ctx, cancel, j, spec, cells, opt)
	return nil
}

// addRecovered inserts a recovered job into the table (first record wins on
// a duplicate ID, which cannot happen with hash-named directories).
func (s *Server) addRecovered(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if _, ok := s.jobs[j.id]; ok {
		return
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
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

// writeJobResult serves a job's result bytes, or the typed not-ready error:
// 409 job_running while work is in flight, 410 job_failed/job_cancelled for
// terminal jobs that will never produce one.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	raw, ready := j.resultBytes()
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
