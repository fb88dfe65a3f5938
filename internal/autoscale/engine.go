package autoscale

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// EngineKind distinguishes the two evaluation techniques of §6.7.
type EngineKind int

// Engine kinds.
const (
	// InVitro is the fine-grained engine: per-task execution, exact
	// dependency tracking and task completion times — the stand-in for the
	// paper's DAS cluster emulation.
	InVitro EngineKind = iota + 1
	// InSilico is the independently coded coarse engine: per-job fluid work
	// model with processor sharing — the stand-in for the paper's simulator.
	InSilico
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	if k == InVitro {
		return "in-vitro"
	}
	return "in-silico"
}

// EngineConfig parameterizes one elasticity run.
//
// Both engines are event-driven on the shared sim.Kernel: job arrivals, VM
// boot completions, autoscaler evaluations, and task/job completions are
// scheduled events at their exact virtual times. Step is the sampling cadence
// of the supply/demand series (and of the core-seconds integral), kept so the
// Herbst-style elasticity metrics remain comparable with the historical
// fixed-timestep engines.
type EngineConfig struct {
	Kind         EngineKind
	Step         float64 // supply/demand sampling cadence (s)
	EvalInterval float64 // autoscaler period (s)
	BootDelay    float64 // VM provisioning latency (s)
	MaxCores     int     // provider capacity cap
	CorePerVM    int     // cores per provisioned VM
	// BootFailureRate is failure injection: each requested VM fails to boot
	// with this probability (the request is lost; the autoscaler must
	// re-provision on a later evaluation). In-vitro engine only.
	BootFailureRate float64
	Seed            int64
}

// DefaultVitroConfig is the fine-grained configuration.
func DefaultVitroConfig() EngineConfig {
	return EngineConfig{Kind: InVitro, Step: 1, EvalInterval: 30, BootDelay: 60, MaxCores: 512, CorePerVM: 4}
}

// DefaultSilicoConfig is the coarse configuration.
func DefaultSilicoConfig() EngineConfig {
	return EngineConfig{Kind: InSilico, Step: 30, EvalInterval: 30, BootDelay: 60, MaxCores: 512, CorePerVM: 4}
}

// RunStats is the outcome of one (autoscaler, workload, engine) run.
type RunStats struct {
	Autoscaler string
	Engine     string

	// Series summarises the supply/demand samples, one per Step.
	Series Series

	// Per-job response times and deadline outcomes.
	JobResponse  []float64
	JobSlowdown  []float64
	DeadlineMiss int
	JobsDone     int

	// CoreSeconds actually provisioned (integral of supply).
	CoreSeconds float64
	Horizon     float64
}

// Run executes the trace under the autoscaler and returns statistics.
// The run ends when all jobs complete. Either engine rejects a trace with a
// job that fails workload.Job.ValidateDAG, or with a submit time or task
// runtime that is not a finite, non-negative number: the kernel cannot
// schedule it before time 0, and no run could finish it at infinity.
func Run(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	if cfg.Step <= 0 || cfg.EvalInterval <= 0 || cfg.CorePerVM <= 0 {
		return nil, fmt.Errorf("autoscale: bad config %+v", cfg)
	}
	if cfg.Kind != InVitro && cfg.Kind != InSilico {
		return nil, fmt.Errorf("autoscale: unknown engine kind %d", cfg.Kind)
	}
	p, err := prepare(tr)
	if err != nil {
		return nil, err
	}
	return p.run(cfg, as)
}

// prepared is a trace made ready for runs: its jobs in submission order,
// every job's DAG checked once, and the dependency topology as CSR arrays
// over task positions. Job i's tasks sit at positions first[i] up to
// first[i+1], in their order within the job, and the dependents of the task
// at position t are dep[depOff[t]:depOff[t+1]], in position order. It also
// keeps the kernel, the arrival batch and the in-vitro state that successive
// runs reuse, so it serves one run at a time.
type prepared struct {
	jobs   []*workload.Job
	first  []int32
	depOff []int32
	dep    []int32

	kernel   *sim.Kernel
	arrivals []sim.BatchEvent
	vitro    *vitroState
}

// prepare orders the trace by submission time (stably), checks each job's
// times and its DAG, with one scratch, and builds the dependency topology.
func prepare(tr *workload.Trace) (*prepared, error) {
	jobs := append([]*workload.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	p := &prepared{jobs: jobs, first: make([]int32, len(jobs)+1)}
	for i, j := range jobs {
		p.first[i+1] = p.first[i] + int32(len(j.Tasks))
	}
	// src holds the position of every dependency, in task order then
	// dependency order: task IDs are unique only within a job, so each is
	// resolved while the scratch still indexes its job.
	var sc workload.DAGScratch
	var src []int32
	for i, j := range jobs {
		if _, err := j.CheckDAG(&sc); err != nil {
			return nil, fmt.Errorf("autoscale: %w", err)
		}
		if !validTime(j.Submit) {
			return nil, fmt.Errorf("autoscale: job %d: submit time %v is not a finite, non-negative number", j.ID, j.Submit)
		}
		for ti := range j.Tasks {
			if rt := j.Tasks[ti].Runtime; !validTime(rt) {
				return nil, fmt.Errorf("autoscale: job %d: task %d: runtime %v is not a finite, non-negative number", j.ID, j.Tasks[ti].ID, rt)
			}
			for _, d := range j.Tasks[ti].Deps {
				q, _ := sc.Index(d)
				src = append(src, p.first[i]+int32(q))
			}
		}
	}
	n := p.first[len(jobs)]
	p.depOff = make([]int32, n+1)
	for _, q := range src {
		p.depOff[q+1]++
	}
	for t := int32(1); t <= n; t++ {
		p.depOff[t] += p.depOff[t-1]
	}
	p.dep = make([]int32, len(src))
	next := slices.Clone(p.depOff[:n])
	e := 0
	for i, j := range jobs {
		for ti := range j.Tasks {
			t := p.first[i] + int32(ti)
			for range j.Tasks[ti].Deps {
				q := src[e]
				e++
				p.dep[next[q]] = t
				next[q]++
			}
		}
	}
	return p, nil
}

// validTime reports whether t is a finite, non-negative time.
func validTime(t sim.Time) bool { return t >= 0 && !math.IsInf(float64(t), 1) }

// dependents returns the positions of the tasks that depend on the task at
// position t, once per listed dependency.
func (p *prepared) dependents(t int32) []int32 { return p.dep[p.depOff[t]:p.depOff[t+1]] }

// run executes one run of cfg, which has passed Run's checks, over the
// prepared trace.
func (p *prepared) run(cfg EngineConfig, as Autoscaler) (*RunStats, error) {
	st := &RunStats{
		Autoscaler:  as.Name(),
		Engine:      cfg.Kind.String(),
		JobResponse: make([]float64, 0, len(p.jobs)),
		JobSlowdown: make([]float64, 0, len(p.jobs)),
	}
	if len(p.jobs) == 0 {
		return st, nil
	}
	if cfg.Kind == InVitro {
		return runVitro(cfg, as, p, st)
	}
	return runSilico(cfg, as, p, st)
}

// start readies the kernel for a run and schedules one arrival per job at
// its submit instant. Arrivals are batch-scheduled up front with the lowest
// sequence numbers (AtBatch assigns them in order), so a job submitted
// exactly at an evaluation instant is admitted before the autoscaler
// observes demand — the admission order of the historical step-driven
// engine — and they fire in submission order, so arrive admits the next
// job of p.jobs.
func (p *prepared) start(seed int64, arrive sim.Handler) *sim.Kernel {
	if p.kernel == nil {
		p.kernel = sim.NewKernel(seed)
	} else {
		p.kernel.Reset(seed)
	}
	p.arrivals = p.arrivals[:0]
	for _, j := range p.jobs {
		p.arrivals = append(p.arrivals, sim.BatchEvent{At: sim.Time(j.Submit), Name: "arrive", Fn: arrive})
	}
	p.kernel.Reserve(len(p.arrivals) + 2)
	p.kernel.AtBatch(p.arrivals)
	clear(p.arrivals)
	return p.kernel
}

// vitroTask is the in-vitro state of the task at one position.
type vitroTask struct {
	runtime  float64
	finishAt float64 // the exact completion instant, set when the task starts
	cpus     int
	job      int32 // the job's position in submission order
	depsLeft int32
}

// vitroJob is the in-vitro state of the job at one position.
type vitroJob struct {
	left    int     // tasks not yet complete
	start   float64 // when its first task started
	started bool
}

// vitroState is the event-driven fine-grained engine: per-task execution on
// the shared simulation kernel. Arrivals fire at exact submit times, VM boots
// complete one BootDelay after the autoscaler requested them, tasks finish at
// their exact runtime instants, and the autoscaler is an
// EvalInterval-periodic event. A Step-periodic sampling event adds to the
// supply/demand series.
type vitroState struct {
	cfg      EngineConfig
	as       Autoscaler
	st       *RunStats
	p        *prepared
	failRand *rand.Rand // nil without failure injection

	tasks      []vitroTask // by task position
	jobs       []vitroJob  // by job position
	arrived    int
	ready      []int32 // task positions, in FCFS order
	running    []int32
	usedCores  int // cores held by running tasks
	readyCores int // cores wanted by ready tasks
	cores      int // booted cores
	booting    int // cores requested but not usable yet
	history    []int
	scratch    []float64 // the autoscaler's Observation.Scratch

	// The handlers, bound once per prepared trace instead of once per
	// event: doneFn[pos] completes the task at position pos.
	arriveFn, evalFn, bootFn, sampleFn sim.Handler
	doneFn                             []sim.Handler

	evalRef   sim.EventRef
	sampleRef sim.EventRef
	finished  bool
}

func runVitro(cfg EngineConfig, as Autoscaler, p *prepared, st *RunStats) (*RunStats, error) {
	v := p.vitro
	if v == nil {
		n := p.first[len(p.jobs)]
		v = &vitroState{tasks: make([]vitroTask, n), jobs: make([]vitroJob, len(p.jobs)), doneFn: make([]sim.Handler, n)}
		v.arriveFn, v.evalFn, v.bootFn, v.sampleFn = v.arrive, v.eval, v.bootDone, v.sample
		for pos := range v.doneFn {
			v.doneFn[pos] = func(k *sim.Kernel) { v.complete(k, int32(pos)) }
		}
		p.vitro = v
	}
	// Start over, keeping the slabs, the queues' storage and the handlers;
	// arrive fills in each task's state.
	clear(v.jobs)
	*v = vitroState{
		cfg: cfg, as: as, st: st, p: p,
		tasks: v.tasks, jobs: v.jobs, ready: v.ready[:0], running: v.running[:0],
		arriveFn: v.arriveFn, evalFn: v.evalFn, bootFn: v.bootFn, sampleFn: v.sampleFn, doneFn: v.doneFn,
		scratch: v.scratch,
	}
	if cfg.BootFailureRate > 0 {
		v.failRand = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	}
	k := p.start(cfg.Seed, v.arriveFn)
	v.evalRef = k.At(0, "eval", v.evalFn)
	v.sampleRef = k.At(0, "sample", v.sampleFn)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("autoscale: %w", err)
	}
	if !v.finished {
		st.Horizon = float64(k.Now())
	}
	return st, nil
}

// arrive admits the next job: its tasks join the dependency graph and its
// root tasks become ready.
func (v *vitroState) arrive(k *sim.Kernel) {
	i := v.arrived
	v.arrived++
	j := v.p.jobs[i]
	v.jobs[i].left = len(j.Tasks)
	for ti := range j.Tasks {
		t := &j.Tasks[ti]
		pos := v.p.first[i] + int32(ti)
		v.tasks[pos] = vitroTask{runtime: float64(t.Runtime), cpus: t.CPUs, job: int32(i), depsLeft: int32(len(t.Deps))}
		if len(t.Deps) == 0 {
			v.ready = append(v.ready, pos)
			v.readyCores += t.CPUs
		}
	}
	v.dispatch(k)
	v.checkDone(k) // a job with no tasks must not stall the run
}

// dispatch starts ready tasks FCFS onto free booted cores, scheduling their
// exact completion events.
func (v *vitroState) dispatch(k *sim.Kernel) {
	now := float64(k.Now())
	free := v.cores - v.usedCores
	// The tasks left ready are filtered into v.ready in place.
	kept := 0
	for _, pos := range v.ready {
		t := &v.tasks[pos]
		if t.cpus > free {
			v.ready[kept] = pos
			kept++
			continue
		}
		free -= t.cpus
		v.readyCores -= t.cpus
		v.usedCores += t.cpus
		t.finishAt = now + t.runtime
		v.running = append(v.running, pos)
		if js := &v.jobs[t.job]; !js.started {
			js.started, js.start = true, now
		}
		k.After(sim.Duration(t.runtime), "task-done", v.doneFn[pos])
	}
	v.ready = v.ready[:kept]
}

// complete finishes the task at position pos: dependents may become ready,
// the job may finish, and freed cores are re-dispatched.
func (v *vitroState) complete(k *sim.Kernel, pos int32) {
	t := &v.tasks[pos]
	v.usedCores -= t.cpus
	if i := slices.Index(v.running, pos); i >= 0 {
		v.running = slices.Delete(v.running, i, i+1)
	}
	for _, d := range v.p.dependents(pos) {
		dt := &v.tasks[d]
		dt.depsLeft--
		if dt.depsLeft == 0 {
			v.ready = append(v.ready, d)
			v.readyCores += dt.cpus
		}
	}
	js := &v.jobs[t.job]
	js.left--
	if js.left == 0 {
		j := v.p.jobs[t.job]
		finishJob(v.st, j, float64(j.Submit), js.start, float64(k.Now()))
	}
	v.dispatch(k)
	v.checkDone(k)
}

// done reports whether all work has been admitted and completed.
func (v *vitroState) done() bool {
	return v.arrived == len(v.p.jobs) && len(v.ready) == 0 && len(v.running) == 0
}

// checkDone ends the run by cancelling the periodic events once no work
// remains; the kernel then drains and Run returns.
func (v *vitroState) checkDone(k *sim.Kernel) {
	if v.finished || !v.done() {
		return
	}
	v.finished = true
	v.st.Horizon = float64(k.Now())
	v.evalRef.Cancel()
	v.sampleRef.Cancel()
}

// demand is the number of cores wanted right now.
func (v *vitroState) demand() int { return v.usedCores + v.readyCores }

// eval is the periodic autoscaler evaluation: observe, retarget, provision
// (with failure injection) or deprovision idle capacity.
func (v *vitroState) eval(k *sim.Kernel) {
	now := float64(k.Now())
	demand := v.demand()
	v.history = append(v.history, demand)
	obs := Observation{
		Now:          now,
		Demand:       demand,
		Supply:       v.cores + v.booting,
		History:      v.history,
		Scratch:      &v.scratch,
		BootDelay:    v.cfg.BootDelay,
		EvalInterval: v.cfg.EvalInterval,
	}
	if v.as.WorkflowAware() {
		obs.SoonEligible = v.soonEligible(now)
	}
	target := v.as.Target(obs)
	if target > v.cfg.MaxCores {
		target = v.cfg.MaxCores
	}
	current := v.cores + v.booting
	if target > current {
		need := target - current
		vms := (need + v.cfg.CorePerVM - 1) / v.cfg.CorePerVM
		for i := 0; i < vms; i++ {
			// Failure injection: the request may be silently lost.
			if v.failRand != nil && v.failRand.Float64() < v.cfg.BootFailureRate {
				continue
			}
			v.booting += v.cfg.CorePerVM
			k.After(sim.Duration(v.cfg.BootDelay), "vm-boot", v.bootFn)
		}
	} else if target < current {
		// Deprovision idle booted cores only (running tasks keep theirs).
		idle := v.cores - v.usedCores
		drop := current - target
		if drop > idle {
			drop = idle
		}
		v.cores -= drop
	}
	v.evalRef = k.After(sim.Duration(v.cfg.EvalInterval), "eval", v.evalFn)
}

// bootDone lands one VM's cores and dispatches onto them.
func (v *vitroState) bootDone(k *sim.Kernel) {
	v.booting -= v.cfg.CorePerVM
	v.cores += v.cfg.CorePerVM
	v.dispatch(k)
}

// sample adds one point to the supply/demand series and accumulates the
// provisioned-capacity integral.
func (v *vitroState) sample(k *sim.Kernel) {
	v.st.Series.Add(v.cores+v.booting, v.demand())
	v.st.CoreSeconds += float64(v.cores) * v.cfg.Step
	v.sampleRef = k.After(sim.Duration(v.cfg.Step), "sample", v.sampleFn)
}

// soonEligible counts cores of tasks whose last dependency finishes within
// one boot delay, from the exact completion times of running tasks.
func (v *vitroState) soonEligible(now float64) int {
	cores := 0
	for _, pos := range v.running {
		if v.tasks[pos].finishAt-now > v.cfg.BootDelay {
			continue
		}
		for _, d := range v.p.dependents(pos) {
			if dt := &v.tasks[d]; dt.depsLeft == 1 { // this finishing task is the last blocker
				cores += dt.cpus
			}
		}
	}
	return cores
}

// finishJob records job-completion statistics.
func finishJob(st *RunStats, j *workload.Job, submit, start, now float64) {
	resp := now - submit
	st.JobResponse = append(st.JobResponse, resp)
	run := now - start
	den := run
	if den < 10 {
		den = 10
	}
	sd := resp / den
	if sd < 1 {
		sd = 1
	}
	st.JobSlowdown = append(st.JobSlowdown, sd)
	if j.Deadline > 0 && resp > float64(j.Deadline) {
		st.DeadlineMiss++
	}
	st.JobsDone++
}

// silicoWidth is the coarse engine's fluid parallelism cap for a job.
func silicoWidth(j *workload.Job) int {
	w := 0
	for _, t := range j.Tasks {
		w += t.CPUs
	}
	// Fluid approximation: at most half the total task cores are usable
	// concurrently (levels constrain workflows).
	if j.IsWorkflow() {
		w = (w + 1) / 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// silicoJob is the in-silico state of one admitted job.
type silicoJob struct {
	job      *workload.Job
	workLeft float64 // CPU-seconds
	width    int     // max useful parallelism
	start    float64
}

// silicoState is the event-driven coarse engine: each job is a fluid amount
// of CPU-work drained by processor sharing. Between events the share of every
// active job is constant, so the earliest zero-crossing of any job's
// remaining work is an exact, schedulable completion instant; arrivals,
// boots, and evaluations change the shares and reschedule it.
type silicoState struct {
	cfg EngineConfig
	as  Autoscaler
	st  *RunStats
	p   *prepared

	arrived int
	active  []silicoJob
	share   []float64 // shares' result, reused
	cores   int
	booting int
	history []int
	scratch []float64 // the autoscaler's Observation.Scratch

	// The handlers, bound once per run instead of once per event.
	completeFn, evalFn, bootFn, sampleFn sim.Handler

	lastAdvance   float64
	completionRef sim.EventRef
	evalRef       sim.EventRef
	sampleRef     sim.EventRef
	finished      bool
}

func runSilico(cfg EngineConfig, as Autoscaler, p *prepared, st *RunStats) (*RunStats, error) {
	s := &silicoState{cfg: cfg, as: as, st: st, p: p}
	s.completeFn, s.evalFn, s.bootFn, s.sampleFn = s.complete, s.eval, s.bootDone, s.sample
	k := p.start(cfg.Seed, s.arrive)
	s.evalRef = k.At(0, "eval", s.evalFn)
	s.sampleRef = k.At(0, "sample", s.sampleFn)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("autoscale: %w", err)
	}
	if !s.finished {
		st.Horizon = float64(k.Now())
	}
	return st, nil
}

func (s *silicoState) demand() int {
	d := 0
	for i := range s.active {
		d += s.active[i].width
	}
	return d
}

// shares returns the per-job core share under proportional sharing capped by
// each job's width — the same allocation rule as the historical step engine,
// applied to the instantaneous state. The result is valid until the next
// call.
func (s *silicoState) shares() []float64 {
	demand := s.demand()
	available := float64(s.cores)
	s.share = s.share[:0]
	for i := range s.active {
		width := float64(s.active[i].width)
		share := 0.0
		if demand > 0 {
			share = float64(s.cores) * width / float64(demand)
		}
		if share > width {
			share = width
		}
		if share > available {
			share = available
		}
		available -= share
		s.share = append(s.share, share)
	}
	return s.share
}

// advanceTo drains fluid work at the shares that held since the last event.
func (s *silicoState) advanceTo(now float64) {
	dt := now - s.lastAdvance
	if dt > 0 && len(s.active) > 0 {
		for i, share := range s.shares() {
			s.active[i].workLeft -= share * dt
		}
	}
	s.lastAdvance = now
}

// reschedule recomputes the next exact job-completion instant from the
// current shares and replaces the pending completion event.
func (s *silicoState) reschedule(k *sim.Kernel) {
	s.completionRef.Cancel()
	shares := s.shares()
	best := -1.0
	for i := range s.active {
		// A drained job completes now even with a zero share.
		workLeft := s.active[i].workLeft
		if workLeft <= 1e-6 {
			best = 0
			break
		}
		if shares[i] <= 0 {
			continue
		}
		t := workLeft / shares[i]
		if best < 0 || t < best {
			best = t
		}
	}
	if best >= 0 {
		s.completionRef = k.After(sim.Duration(best), "job-done", s.completeFn)
	}
}

// arrive admits the next job as a fluid amount of work.
func (s *silicoState) arrive(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	j := s.p.jobs[s.arrived]
	s.arrived++
	s.active = append(s.active, silicoJob{job: j, workLeft: j.TotalWork(), width: silicoWidth(j), start: now})
	s.reschedule(k)
}

// complete retires every job whose fluid work has drained to zero.
func (s *silicoState) complete(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	kept := 0
	for _, sj := range s.active {
		if sj.workLeft > 1e-6 {
			s.active[kept] = sj
			kept++
			continue
		}
		finishJob(s.st, sj.job, float64(sj.job.Submit), sj.start, now)
	}
	clear(s.active[kept:])
	s.active = s.active[:kept]
	s.reschedule(k)
	s.checkDone(k)
}

func (s *silicoState) checkDone(k *sim.Kernel) {
	if s.finished || s.arrived != len(s.p.jobs) || len(s.active) > 0 {
		return
	}
	s.finished = true
	s.st.Horizon = float64(k.Now())
	s.completionRef.Cancel()
	s.evalRef.Cancel()
	s.sampleRef.Cancel()
}

func (s *silicoState) eval(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	demand := s.demand()
	s.history = append(s.history, demand)
	obs := Observation{
		Now:          now,
		Demand:       demand,
		Supply:       s.cores + s.booting,
		History:      s.history,
		Scratch:      &s.scratch,
		BootDelay:    s.cfg.BootDelay,
		EvalInterval: s.cfg.EvalInterval,
	}
	if s.as.WorkflowAware() {
		// The coarse engine approximates the eligible wave as 25% of
		// outstanding width — an intentionally different model from the
		// in-vitro engine.
		obs.SoonEligible = demand / 4
	}
	target := s.as.Target(obs)
	if target > s.cfg.MaxCores {
		target = s.cfg.MaxCores
	}
	current := s.cores + s.booting
	if target > current {
		need := target - current
		vms := (need + s.cfg.CorePerVM - 1) / s.cfg.CorePerVM
		for i := 0; i < vms; i++ {
			s.booting += s.cfg.CorePerVM
			k.After(sim.Duration(s.cfg.BootDelay), "vm-boot", s.bootFn)
		}
	} else if target < current && s.cores > 0 {
		drop := current - target
		if drop > s.cores {
			drop = s.cores
		}
		s.cores -= drop
		s.reschedule(k)
	}
	s.evalRef = k.After(sim.Duration(s.cfg.EvalInterval), "eval", s.evalFn)
}

func (s *silicoState) bootDone(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	s.booting -= s.cfg.CorePerVM
	s.cores += s.cfg.CorePerVM
	s.reschedule(k)
}

func (s *silicoState) sample(k *sim.Kernel) {
	s.advanceTo(float64(k.Now()))
	s.st.Series.Add(s.cores+s.booting, s.demand())
	s.st.CoreSeconds += float64(s.cores) * s.cfg.Step
	s.sampleRef = k.After(sim.Duration(s.cfg.Step), "sample", s.sampleFn)
}
