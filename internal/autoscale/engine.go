package autoscale

import (
	"fmt"
	"math/rand"
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

	// Supply/Demand time series, one sample per Step.
	Times  []float64
	Supply []int
	Demand []int

	// Per-job response times and deadline outcomes.
	JobResponse  []float64
	JobSlowdown  []float64
	DeadlineMiss int
	JobsDone     int

	// CoreSeconds actually provisioned (integral of supply).
	CoreSeconds float64
	Horizon     float64
}

type vitroTask struct {
	task      *workload.Task
	job       *workload.Job
	remaining float64
	running   bool
	depsLeft  int
	// finishAt is the exact completion instant, set when the task starts.
	finishAt float64
}

type silicoJob struct {
	job      *workload.Job
	workLeft float64 // CPU-seconds
	width    int     // max useful parallelism
	started  bool
	start    float64
}

// Run executes the trace under the autoscaler and returns statistics.
// The run ends when all jobs complete.
func Run(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	if cfg.Step <= 0 || cfg.EvalInterval <= 0 || cfg.CorePerVM <= 0 {
		return nil, fmt.Errorf("autoscale: bad config %+v", cfg)
	}
	switch cfg.Kind {
	case InVitro:
		return runVitro(cfg, as, tr)
	case InSilico:
		return runSilico(cfg, as, tr)
	default:
		return nil, fmt.Errorf("autoscale: unknown engine kind %d", cfg.Kind)
	}
}

// sortedJobs validates and orders the trace by submission time.
func sortedJobs(tr *workload.Trace, validate bool) ([]*workload.Job, error) {
	jobs := append([]*workload.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	if validate {
		for _, j := range jobs {
			if err := j.ValidateDAG(); err != nil {
				return nil, fmt.Errorf("autoscale: %w", err)
			}
		}
	}
	return jobs, nil
}

// vitroState is the event-driven fine-grained engine: per-task execution on
// the shared simulation kernel. Arrivals fire at exact submit times, VM boots
// complete one BootDelay after the autoscaler requested them, tasks finish at
// their exact remaining-runtime instants, and the autoscaler is an
// EvalInterval-periodic event. A Step-periodic sampling event records the
// supply/demand series.
type vitroState struct {
	cfg      EngineConfig
	as       Autoscaler
	st       *RunStats
	failRand *rand.Rand

	jobs       []*workload.Job
	arrived    int
	tasks      map[int]*vitroTask
	dependents map[int][]int
	ready      []*vitroTask
	running    []*vitroTask
	usedCores  int // cores held by running tasks
	readyCores int // cores wanted by ready tasks
	cores      int // booted cores
	booting    int // cores requested but not usable yet
	history    []int
	jobLeft    map[int]int
	jobStart   map[int]float64
	jobSubmit  map[int]float64

	evalRef   sim.EventRef
	sampleRef sim.EventRef
	finished  bool
}

func runVitro(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	jobs, err := sortedJobs(tr, true)
	if err != nil {
		return nil, err
	}
	v := &vitroState{
		cfg:        cfg,
		as:         as,
		st:         &RunStats{Autoscaler: as.Name(), Engine: cfg.Kind.String()},
		failRand:   rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		jobs:       jobs,
		tasks:      map[int]*vitroTask{},
		dependents: map[int][]int{},
		jobLeft:    map[int]int{},
		jobStart:   map[int]float64{},
		jobSubmit:  map[int]float64{},
	}

	if len(jobs) == 0 {
		return v.st, nil
	}
	k := sim.NewKernel(cfg.Seed)
	// Arrivals are batch-scheduled up front with the lowest sequence numbers
	// (AtBatch assigns them in order), so a job submitted exactly at an
	// evaluation instant is admitted before the autoscaler observes demand —
	// the admission order of the historical step-driven engine.
	arrivals := make([]sim.BatchEvent, len(jobs))
	for i, j := range jobs {
		j := j
		arrivals[i] = sim.BatchEvent{
			At: sim.Time(j.Submit), Name: "arrive",
			Fn: func(k *sim.Kernel) { v.arrive(k, j) },
		}
	}
	k.Reserve(len(arrivals) + 2)
	k.AtBatch(arrivals)
	v.evalRef = k.At(0, "eval", v.eval)
	v.sampleRef = k.At(0, "sample", v.sample)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("autoscale: %w", err)
	}
	if !v.finished {
		v.st.Horizon = float64(k.Now())
	}
	return v.st, nil
}

// arrive admits one job: its tasks join the dependency graph and its root
// tasks become ready.
func (v *vitroState) arrive(k *sim.Kernel, j *workload.Job) {
	v.arrived++
	v.jobLeft[j.ID] = len(j.Tasks)
	v.jobSubmit[j.ID] = float64(j.Submit)
	for i := range j.Tasks {
		t := &j.Tasks[i]
		vt := &vitroTask{task: t, job: j, remaining: float64(t.Runtime), depsLeft: len(t.Deps)}
		v.tasks[t.ID] = vt
		for _, d := range t.Deps {
			v.dependents[d] = append(v.dependents[d], t.ID)
		}
		if vt.depsLeft == 0 {
			v.ready = append(v.ready, vt)
			v.readyCores += t.CPUs
		}
	}
	v.dispatch(k)
	v.checkDone(k) // a job with no tasks must not stall the run
}

// dispatch starts ready tasks FCFS onto free booted cores, scheduling their
// exact completion events.
func (v *vitroState) dispatch(k *sim.Kernel) {
	free := v.cores - v.usedCores
	// The tasks left ready are filtered into v.ready in place.
	kept := 0
	for _, vt := range v.ready {
		if vt.task.CPUs <= free {
			free -= vt.task.CPUs
			v.readyCores -= vt.task.CPUs
			v.usedCores += vt.task.CPUs
			vt.running = true
			vt.finishAt = float64(k.Now()) + vt.remaining
			v.running = append(v.running, vt)
			if _, ok := v.jobStart[vt.job.ID]; !ok {
				v.jobStart[vt.job.ID] = float64(k.Now())
			}
			vt := vt
			k.After(sim.Duration(vt.remaining), "task-done", func(k *sim.Kernel) { v.complete(k, vt) })
		} else {
			v.ready[kept] = vt
			kept++
		}
	}
	clear(v.ready[kept:])
	v.ready = v.ready[:kept]
}

// complete finishes one task: dependents may become ready, the job may
// finish, and freed cores are re-dispatched.
func (v *vitroState) complete(k *sim.Kernel, vt *vitroTask) {
	now := float64(k.Now())
	vt.running = false
	vt.remaining = 0
	v.usedCores -= vt.task.CPUs
	for i, rt := range v.running {
		if rt == vt {
			v.running = append(v.running[:i], v.running[i+1:]...)
			break
		}
	}
	for _, depID := range v.dependents[vt.task.ID] {
		dt := v.tasks[depID]
		dt.depsLeft--
		if dt.depsLeft == 0 {
			v.ready = append(v.ready, dt)
			v.readyCores += dt.task.CPUs
		}
	}
	v.jobLeft[vt.job.ID]--
	if v.jobLeft[vt.job.ID] == 0 {
		finishJob(v.st, vt.job, v.jobSubmit[vt.job.ID], v.jobStart[vt.job.ID], now)
	}
	v.dispatch(k)
	v.checkDone(k)
}

// done reports whether all work has been admitted and completed.
func (v *vitroState) done() bool {
	return v.arrived == len(v.jobs) && len(v.ready) == 0 && len(v.running) == 0
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
		BootDelay:    v.cfg.BootDelay,
		EvalInterval: v.cfg.EvalInterval,
	}
	if v.as.WorkflowAware() {
		obs.SoonEligible = soonEligibleEvent(v.running, v.dependents, v.tasks, float64(k.Now()), v.cfg.BootDelay)
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
			if v.cfg.BootFailureRate > 0 && v.failRand.Float64() < v.cfg.BootFailureRate {
				continue
			}
			v.booting += v.cfg.CorePerVM
			k.After(sim.Duration(v.cfg.BootDelay), "vm-boot", v.bootDone)
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
	v.evalRef = k.After(sim.Duration(v.cfg.EvalInterval), "eval", v.eval)
}

// bootDone lands one VM's cores and dispatches onto them.
func (v *vitroState) bootDone(k *sim.Kernel) {
	v.booting -= v.cfg.CorePerVM
	v.cores += v.cfg.CorePerVM
	v.dispatch(k)
}

// sample records one point of the supply/demand series and accumulates the
// provisioned-capacity integral.
func (v *vitroState) sample(k *sim.Kernel) {
	v.st.Times = append(v.st.Times, float64(k.Now()))
	v.st.Supply = append(v.st.Supply, v.cores+v.booting)
	v.st.Demand = append(v.st.Demand, v.demand())
	v.st.CoreSeconds += float64(v.cores) * v.cfg.Step
	v.sampleRef = k.After(sim.Duration(v.cfg.Step), "sample", v.sample)
}

// soonEligibleEvent counts cores of tasks whose last dependency finishes
// within horizon, from the exact completion times of running tasks.
func soonEligibleEvent(running []*vitroTask, dependents map[int][]int, tasks map[int]*vitroTask, now, horizon float64) int {
	cores := 0
	for _, rt := range running {
		if rt.finishAt-now > horizon {
			continue
		}
		for _, depID := range dependents[rt.task.ID] {
			dt := tasks[depID]
			if dt.depsLeft == 1 { // this finishing task is the last blocker
				cores += dt.task.CPUs
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

// silicoState is the event-driven coarse engine: each job is a fluid amount
// of CPU-work drained by processor sharing. Between events the share of every
// active job is constant, so the earliest zero-crossing of any job's
// remaining work is an exact, schedulable completion instant; arrivals,
// boots, and evaluations change the shares and reschedule it.
type silicoState struct {
	cfg EngineConfig
	as  Autoscaler
	st  *RunStats

	jobs    []*workload.Job
	arrived int
	active  []*silicoJob
	cores   int
	booting int
	history []int

	lastAdvance   float64
	completionRef sim.EventRef
	evalRef       sim.EventRef
	sampleRef     sim.EventRef
	finished      bool
}

func runSilico(cfg EngineConfig, as Autoscaler, tr *workload.Trace) (*RunStats, error) {
	jobs, err := sortedJobs(tr, false)
	if err != nil {
		return nil, err
	}
	s := &silicoState{
		cfg:  cfg,
		as:   as,
		st:   &RunStats{Autoscaler: as.Name(), Engine: cfg.Kind.String()},
		jobs: jobs,
	}
	if len(jobs) == 0 {
		return s.st, nil
	}
	k := sim.NewKernel(cfg.Seed)
	arrivals := make([]sim.BatchEvent, len(jobs))
	for i, j := range jobs {
		j := j
		arrivals[i] = sim.BatchEvent{
			At: sim.Time(j.Submit), Name: "arrive",
			Fn: func(k *sim.Kernel) { s.arrive(k, j) },
		}
	}
	k.Reserve(len(arrivals) + 2)
	k.AtBatch(arrivals)
	s.evalRef = k.At(0, "eval", s.eval)
	s.sampleRef = k.At(0, "sample", s.sample)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("autoscale: %w", err)
	}
	if !s.finished {
		s.st.Horizon = float64(k.Now())
	}
	return s.st, nil
}

func (s *silicoState) demand() int {
	d := 0
	for _, sj := range s.active {
		d += sj.width
	}
	return d
}

// shares returns the per-job core share under proportional sharing capped by
// each job's width — the same allocation rule as the historical step engine,
// applied to the instantaneous state.
func (s *silicoState) shares() []float64 {
	demand := s.demand()
	available := float64(s.cores)
	out := make([]float64, len(s.active))
	for i, sj := range s.active {
		share := 0.0
		if demand > 0 {
			share = float64(s.cores) * float64(sj.width) / float64(demand)
		}
		if share > float64(sj.width) {
			share = float64(sj.width)
		}
		if share > available {
			share = available
		}
		available -= share
		out[i] = share
	}
	return out
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
	for i, sj := range s.active {
		// A drained job completes now even with a zero share.
		if sj.workLeft <= 1e-6 {
			best = 0
			break
		}
		if shares[i] <= 0 {
			continue
		}
		t := sj.workLeft / shares[i]
		if best < 0 || t < best {
			best = t
		}
	}
	if best >= 0 {
		s.completionRef = k.After(sim.Duration(best), "job-done", s.complete)
	}
}

func (s *silicoState) arrive(k *sim.Kernel, j *workload.Job) {
	now := float64(k.Now())
	s.advanceTo(now)
	s.arrived++
	s.active = append(s.active, &silicoJob{
		job: j, workLeft: j.TotalWork(), width: silicoWidth(j),
		started: true, start: now,
	})
	s.reschedule(k)
}

// complete retires every job whose fluid work has drained to zero.
func (s *silicoState) complete(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	var still []*silicoJob
	for _, sj := range s.active {
		if sj.workLeft > 1e-6 {
			still = append(still, sj)
			continue
		}
		finishJob(s.st, sj.job, float64(sj.job.Submit), sj.start, now)
	}
	s.active = still
	s.reschedule(k)
	s.checkDone(k)
}

func (s *silicoState) checkDone(k *sim.Kernel) {
	if s.finished || s.arrived != len(s.jobs) || len(s.active) > 0 {
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
			k.After(sim.Duration(s.cfg.BootDelay), "vm-boot", s.bootDone)
		}
	} else if target < current && s.cores > 0 {
		drop := current - target
		if drop > s.cores {
			drop = s.cores
		}
		s.cores -= drop
		s.reschedule(k)
	}
	s.evalRef = k.After(sim.Duration(s.cfg.EvalInterval), "eval", s.eval)
}

func (s *silicoState) bootDone(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	s.booting -= s.cfg.CorePerVM
	s.cores += s.cfg.CorePerVM
	s.reschedule(k)
}

func (s *silicoState) sample(k *sim.Kernel) {
	now := float64(k.Now())
	s.advanceTo(now)
	s.st.Times = append(s.st.Times, now)
	s.st.Supply = append(s.st.Supply, s.cores+s.booting)
	s.st.Demand = append(s.st.Demand, s.demand())
	s.st.CoreSeconds += float64(s.cores) * s.cfg.Step
	s.sampleRef = k.After(sim.Duration(s.cfg.Step), "sample", s.sample)
}
