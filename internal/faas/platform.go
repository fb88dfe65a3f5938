// Package faas simulates serverless (Function-as-a-Service) platforms per
// the SPEC-RG FaaS reference architecture the paper's team proposed
// (Table 7): a router/scheduler in front of per-function instance pools with
// cold starts and keep-alive expiry, a workflow execution engine in the
// style of Fission Workflows, and an always-on microservice baseline for the
// operational-model comparison.
package faas

import (
	"fmt"
	"math"
	"sort"

	"atlarge/internal/sim"
	"atlarge/internal/stats"
)

// Function is a registered function.
type Function struct {
	Name string
	// ExecMean/ExecSigma parameterize a log-normal execution time (seconds).
	ExecMean  float64
	ExecSigma float64
	// MemoryMB drives the cost model.
	MemoryMB int
}

// Invocation is one completed function invocation.
type Invocation struct {
	Function string
	Arrive   sim.Time
	Start    sim.Time // when execution began (after any cold start)
	End      sim.Time
	Cold     bool
}

// Latency returns end-to-end latency (seconds).
func (iv Invocation) Latency() float64 { return float64(iv.End - iv.Arrive) }

// PlatformConfig parameterizes the FaaS platform.
type PlatformConfig struct {
	// ColdStart is the instance provisioning delay (s).
	ColdStart float64
	// KeepAlive is how long an idle instance stays warm (s).
	KeepAlive float64
	// MaxConcurrent caps the number of instances per function (0 = no cap).
	MaxConcurrent int
	Seed          int64
}

// DefaultPlatformConfig mirrors public-cloud FaaS behaviour (sub-second to
// seconds cold starts, minutes of keep-alive).
func DefaultPlatformConfig() PlatformConfig {
	return PlatformConfig{ColdStart: 1.5, KeepAlive: 600, MaxConcurrent: 200, Seed: 1}
}

// instance is one function container.
type instance struct {
	fn       string
	idleAt   sim.Time
	busy     bool
	expireEv sim.EventRef
	// aliveFrom/aliveTo track lifetime for the cost integral.
	aliveFrom sim.Time
	aliveTo   sim.Time
	dead      bool
}

// Platform is the simulated FaaS platform (router + scheduler + pools).
type Platform struct {
	cfg       PlatformConfig
	k         *sim.Kernel
	functions map[string]Function
	idle      map[string][]*instance
	instances []*instance
	countByFn map[string]int
	pending   map[string][]pendingInv // queued when MaxConcurrent reached
	done      []Invocation
}

type pendingInv struct {
	arrive sim.Time
}

// NewPlatform builds a platform on a fresh kernel.
func NewPlatform(cfg PlatformConfig) *Platform {
	return &Platform{
		cfg:       cfg,
		k:         sim.NewKernel(cfg.Seed),
		functions: make(map[string]Function),
		idle:      make(map[string][]*instance),
		countByFn: make(map[string]int),
		pending:   make(map[string][]pendingInv),
	}
}

// Kernel exposes the simulation kernel.
func (p *Platform) Kernel() *sim.Kernel { return p.k }

// Register adds a function. Registering a duplicate name is an error.
func (p *Platform) Register(fn Function) error {
	if fn.Name == "" {
		return fmt.Errorf("faas: function without name")
	}
	if _, ok := p.functions[fn.Name]; ok {
		return fmt.Errorf("faas: function %q already registered", fn.Name)
	}
	if fn.ExecMean <= 0 {
		return fmt.Errorf("faas: function %q exec mean %v", fn.Name, fn.ExecMean)
	}
	p.functions[fn.Name] = fn
	return nil
}

// ScheduleInvocation registers an invocation arrival; onDone (optional) runs
// at completion — the hook the workflow engine uses for chaining.
func (p *Platform) ScheduleInvocation(at sim.Time, fn string, onDone func(Invocation)) error {
	if _, ok := p.functions[fn]; !ok {
		return fmt.Errorf("faas: unknown function %q", fn)
	}
	p.k.At(at, "invoke", func(k *sim.Kernel) {
		p.route(fn, k.Now(), onDone)
	})
	return nil
}

// route implements the router/scheduler: reuse a warm instance, cold-start a
// new one, or queue when at the concurrency cap.
func (p *Platform) route(fn string, arrive sim.Time, onDone func(Invocation)) {
	if pool := p.idle[fn]; len(pool) > 0 {
		inst := pool[len(pool)-1]
		p.idle[fn] = pool[:len(pool)-1]
		inst.expireEv.Cancel()
		p.execute(inst, fn, arrive, arrive, false, onDone)
		return
	}
	if p.cfg.MaxConcurrent > 0 && p.countByFn[fn] >= p.cfg.MaxConcurrent {
		p.pending[fn] = append(p.pending[fn], pendingInv{arrive: arrive})
		return
	}
	inst := &instance{fn: fn, aliveFrom: arrive}
	p.instances = append(p.instances, inst)
	p.countByFn[fn]++
	start := arrive + sim.Duration(p.cfg.ColdStart)
	p.execute(inst, fn, arrive, start, true, onDone)
}

func (p *Platform) execute(inst *instance, fn string, arrive, start sim.Time, cold bool, onDone func(Invocation)) {
	inst.busy = true
	f := p.functions[fn]
	mu := math.Log(f.ExecMean) - f.ExecSigma*f.ExecSigma/2
	exec := sim.LogNormal{Mu: mu, Sigma: f.ExecSigma}.Sample(p.k.Rand("exec/" + fn))
	end := start + sim.Duration(exec)
	p.k.At(end, "complete", func(k *sim.Kernel) {
		inst.busy = false
		iv := Invocation{Function: fn, Arrive: arrive, Start: start, End: end, Cold: cold}
		p.done = append(p.done, iv)
		if onDone != nil {
			onDone(iv)
		}
		// Serve queued work first.
		if q := p.pending[fn]; len(q) > 0 {
			p.pending[fn] = q[1:]
			p.execute(inst, fn, q[0].arrive, k.Now(), false, onDone)
			return
		}
		// Idle: schedule keep-alive expiry.
		inst.idleAt = k.Now()
		p.idle[fn] = append(p.idle[fn], inst)
		ii := inst
		ii.expireEv = k.After(sim.Duration(p.cfg.KeepAlive), "expire", func(k *sim.Kernel) {
			p.expire(ii)
		})
	})
}

// expire removes an idle instance from the pool.
func (p *Platform) expire(inst *instance) {
	if inst.busy || inst.dead {
		return
	}
	pool := p.idle[inst.fn]
	for i, cand := range pool {
		if cand == inst {
			p.idle[inst.fn] = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	inst.dead = true
	inst.aliveTo = p.k.Now()
	p.countByFn[inst.fn]--
}

// Run executes the simulation until the event queue drains.
func (p *Platform) Run() error {
	if err := p.k.Run(); err != nil {
		return fmt.Errorf("faas: %w", err)
	}
	// Close lifetimes of instances still alive.
	for _, inst := range p.instances {
		if !inst.dead {
			inst.aliveTo = p.k.Now()
		}
	}
	return nil
}

// InstanceSeconds returns the total instance lifetime (the pay-per-use cost
// proxy; FaaS bills only while instances exist).
func (p *Platform) InstanceSeconds() float64 {
	s := 0.0
	for _, inst := range p.instances {
		s += float64(inst.aliveTo - inst.aliveFrom)
	}
	return s
}

// Report summarizes platform behaviour.
type Report struct {
	Invocations     int
	ColdStarts      int
	ColdStartPct    float64
	MeanLatency     float64
	P50Latency      float64
	P99Latency      float64
	InstanceSeconds float64
}

// BuildReport computes the summary over completed invocations.
func (p *Platform) BuildReport() Report {
	rep := Report{Invocations: len(p.done), InstanceSeconds: p.InstanceSeconds()}
	if len(p.done) == 0 {
		return rep
	}
	lats := make([]float64, len(p.done))
	for i, iv := range p.done {
		lats[i] = iv.Latency()
		if iv.Cold {
			rep.ColdStarts++
		}
	}
	sort.Float64s(lats)
	rep.ColdStartPct = 100 * float64(rep.ColdStarts) / float64(len(p.done))
	rep.MeanLatency = stats.Mean(lats)
	rep.P50Latency = stats.Percentile(lats, 50)
	rep.P99Latency = stats.Percentile(lats, 99)
	return rep
}

// Microservice is the always-on baseline: k instances of one service with a
// shared FCFS queue. It answers the serverless-vs-microservices operational
// trade-off question (§6.4): no cold starts and lower tail latency, but the
// operator pays for idle capacity.
type Microservice struct {
	Instances int
	ExecMean  float64
	ExecSigma float64
	Seed      int64
}

// Simulate processes arrivals and returns (report, always-on instance
// seconds over the horizon).
func (m Microservice) Simulate(arrivals []sim.Time) (Report, error) {
	if m.Instances < 1 {
		return Report{}, fmt.Errorf("faas: microservice with %d instances", m.Instances)
	}
	k := sim.NewKernel(m.Seed)
	freeAt := make([]sim.Time, m.Instances)
	var lats []float64
	mu := math.Log(m.ExecMean) - m.ExecSigma*m.ExecSigma/2
	dist := sim.LogNormal{Mu: mu, Sigma: m.ExecSigma}
	var horizon sim.Time
	for _, at := range arrivals {
		// Earliest-free instance.
		best := 0
		for i := 1; i < m.Instances; i++ {
			if freeAt[i] < freeAt[best] {
				best = i
			}
		}
		start := at
		if freeAt[best] > start {
			start = freeAt[best]
		}
		exec := sim.Duration(dist.Sample(k.Rand("exec")))
		end := start + exec
		freeAt[best] = end
		lats = append(lats, float64(end-at))
		if end > horizon {
			horizon = end
		}
	}
	rep := Report{Invocations: len(arrivals)}
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.MeanLatency = stats.Mean(lats)
		rep.P50Latency = stats.Percentile(lats, 50)
		rep.P99Latency = stats.Percentile(lats, 99)
	}
	rep.InstanceSeconds = float64(horizon) * float64(m.Instances)
	return rep, nil
}
