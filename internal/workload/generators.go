package workload

import (
	"fmt"
	"math"
	"math/rand"

	"atlarge/internal/sim"
)

// Generator builds a trace of n jobs for one workload class.
type Generator struct {
	Class    Class
	Arrivals ArrivalProcess
	// Runtime is the per-task runtime distribution (seconds).
	Runtime sim.Dist
	// TaskCPUs is the per-task CPU-count distribution (rounded, min 1).
	TaskCPUs sim.Dist
	// TasksPerJob is the bag width distribution (rounded, min 1).
	TasksPerJob sim.Dist
	// WorkflowFraction of jobs are converted into DAGs with level structure.
	WorkflowFraction float64
	// EstimateNoise is the relative multiplicative noise applied to runtime
	// estimates; 0 means perfect estimates. Big-data workloads use large
	// noise to reproduce the POSUM sub-optimality finding (Table 9).
	EstimateNoise float64
	// DeadlineFactor, when positive, sets each job's deadline to
	// DeadlineFactor × critical path (or runtime for bags).
	DeadlineFactor float64
}

// Generate produces n jobs using RNG r. It is a thin materialization of the
// streaming form: Collect(g.Source(n, r), n), draw-for-draw identical to the
// historical eager implementation.
func (g Generator) Generate(n int, r *rand.Rand) *Trace {
	return Collect(g.Source(n, r), n)
}

// genScratch holds the reusable buffers behind streaming job-body
// generation: a dep arena (two slots per task, the generator's maximum) and
// a critical-path memo. One scratch serves one stream; jobs emitted from it
// are valid until the next fill.
type genScratch struct {
	deps   []int
	finish []sim.Duration
}

// fillJob draws one job body — tasks, optional DAG structure, deadline —
// into job, which must already carry ID, Submit, and Class. Tasks get
// job-local IDs 1..width and Deps refer to those; callers make them globally
// unique with emitAs. Storage comes from job.Tasks' spare capacity and
// sc, so a reused job allocates nothing once the buffers are warm.
func (g Generator) fillJob(job *Job, r *rand.Rand, sc *genScratch) {
	width := int(g.TasksPerJob.Sample(r))
	if width < 1 {
		width = 1
	}
	if cap(job.Tasks) < width {
		job.Tasks = make([]Task, 0, width)
	}
	job.Tasks = job.Tasks[:0]
	if cap(sc.deps) < 2*width {
		sc.deps = make([]int, 2*width)
	}
	job.Deadline = 0
	for w := 0; w < width; w++ {
		rt := sim.Duration(g.Runtime.Sample(r))
		if rt <= 0 {
			rt = 0.001
		}
		cpus := int(g.TaskCPUs.Sample(r))
		if cpus < 1 {
			cpus = 1
		}
		est := rt
		if g.EstimateNoise > 0 {
			est = rt * sim.Duration(1+g.EstimateNoise*(2*r.Float64()-1))
			if est <= 0 {
				est = 0.001
			}
		}
		job.Tasks = append(job.Tasks, Task{
			ID:              w + 1,
			JobID:           job.ID,
			CPUs:            cpus,
			Runtime:         rt,
			RuntimeEstimate: est,
			Deps:            sc.deps[2*w : 2*w : 2*w+2],
		})
	}
	if g.WorkflowFraction > 0 && r.Float64() < g.WorkflowFraction && width > 2 {
		chainIntoLevels(job, r)
	}
	if g.DeadlineFactor > 0 {
		job.Deadline = sim.Duration(g.DeadlineFactor) * sc.criticalPath(job)
	}
}

// criticalPath computes Job.CheckDAG's critical path without allocating,
// relying on the generator invariant that dependencies point only at lower
// task indexes (task ID = index+1 before rebasing).
func (sc *genScratch) criticalPath(job *Job) sim.Duration {
	if cap(sc.finish) < len(job.Tasks) {
		sc.finish = make([]sim.Duration, len(job.Tasks))
	}
	finish := sc.finish[:len(job.Tasks)]
	var cp sim.Duration
	for i := range job.Tasks {
		t := &job.Tasks[i]
		var start sim.Duration
		for _, d := range t.Deps {
			if f := finish[d-1]; f > start {
				start = f
			}
		}
		finish[i] = start + t.Runtime
		if finish[i] > cp {
			cp = finish[i]
		}
	}
	return cp
}

// chainIntoLevels turns a bag into a layered DAG: tasks are split into 2-4
// levels; each task depends on one or two tasks of the previous level. This
// mirrors the fork-join shapes of scientific workflows (Montage, LIGO).
func chainIntoLevels(job *Job, r *rand.Rand) {
	levels := 2 + r.Intn(3)
	if levels > len(job.Tasks) {
		levels = len(job.Tasks)
	}
	perLevel := len(job.Tasks) / levels
	if perLevel == 0 {
		perLevel = 1
	}
	// Level assignment is monotone in the task index (level = index/perLevel,
	// clamped to the last level), so each level occupies a contiguous index
	// range and no per-level index slices are needed.
	for i := range job.Tasks {
		l := i / perLevel
		if l >= levels {
			l = levels - 1
		}
		if l == 0 {
			continue
		}
		// The previous level is never the clamped tail level, so it holds
		// exactly perLevel tasks starting at (l-1)·perLevel.
		lo := (l - 1) * perLevel
		nDeps := 1
		if perLevel > 1 && r.Float64() < 0.5 {
			nDeps = 2
		}
		first := -1
		for d := 0; d < nDeps; d++ {
			p := lo + r.Intn(perLevel)
			if p == first {
				continue
			}
			first = p
			job.Tasks[i].Deps = append(job.Tasks[i].Deps, job.Tasks[p].ID)
		}
	}
}

// MaxTaskCPUs returns the widest task the generator can draw: the largest
// CPU count its TaskCPUs distribution rounds down to (at least 1), or 0 when
// the distribution is unbounded.
func (g Generator) MaxTaskCPUs() int {
	var hi float64
	switch d := g.TaskCPUs.(type) {
	case sim.Constant:
		hi = d.Value
	case sim.Uniform:
		// Samples fall in [Low, High).
		hi = math.Nextafter(d.High, math.Inf(-1))
	default:
		return 0
	}
	return max(1, int(hi))
}

// StandardGenerator returns the calibrated generator for a workload class.
// The parameterizations are stylized versions of the cited trace studies:
// scientific workloads are workflow-heavy with bursty (Weibull k<1) arrivals,
// business-critical workloads are long-running with diurnal arrivals,
// big-data workloads have heavy-tailed runtimes and poor estimates, gaming
// workloads are short-task and latency-bound, and industrial IoT workloads
// are narrow periodic analytics.
func StandardGenerator(c Class) Generator {
	switch c {
	case ClassSynthetic:
		return Generator{
			Class:       c,
			Arrivals:    PoissonArrivals{Rate: 0.05},
			Runtime:     sim.Exponential{Lambda: 1.0 / 120},
			TaskCPUs:    sim.Constant{Value: 1},
			TasksPerJob: sim.Uniform{Low: 1, High: 10},
		}
	case ClassScientific:
		return Generator{
			Class:            c,
			Arrivals:         WeibullArrivals{Scale: 25, K: 0.7},
			Runtime:          sim.LogNormal{Mu: 4.5, Sigma: 1.1},
			TaskCPUs:         sim.Uniform{Low: 1, High: 4},
			TasksPerJob:      sim.Uniform{Low: 5, High: 40},
			WorkflowFraction: 0.7,
			EstimateNoise:    0.3,
			DeadlineFactor:   4,
		}
	case ClassComputerEngineering:
		return Generator{
			Class:       c,
			Arrivals:    PoissonArrivals{Rate: 0.08},
			Runtime:     sim.LogNormal{Mu: 5.5, Sigma: 0.8},
			TaskCPUs:    sim.Uniform{Low: 1, High: 8},
			TasksPerJob: sim.Uniform{Low: 1, High: 100},
		}
	case ClassBusinessCritical:
		return Generator{
			Class:       c,
			Arrivals:    DiurnalArrivals{BaseRate: 0.02, Period: 86400, Amplitude: 0.8},
			Runtime:     sim.LogNormal{Mu: 7.5, Sigma: 0.6},
			TaskCPUs:    sim.Uniform{Low: 1, High: 16},
			TasksPerJob: sim.Constant{Value: 1},
		}
	case ClassBigData:
		return Generator{
			Class:            c,
			Arrivals:         WeibullArrivals{Scale: 15, K: 0.6},
			Runtime:          sim.Pareto{Xm: 30, Alpha: 1.5},
			TaskCPUs:         sim.Uniform{Low: 1, High: 4},
			TasksPerJob:      sim.Uniform{Low: 10, High: 200},
			WorkflowFraction: 0.4,
			EstimateNoise:    2.5, // runtimes are hard to predict (POSUM finding)
		}
	case ClassGaming:
		return Generator{
			Class:          c,
			Arrivals:       DiurnalArrivals{BaseRate: 0.2, Period: 86400, Amplitude: 0.9},
			Runtime:        sim.Exponential{Lambda: 1.0 / 20},
			TaskCPUs:       sim.Constant{Value: 1},
			TasksPerJob:    sim.Uniform{Low: 1, High: 4},
			DeadlineFactor: 2,
		}
	case ClassIndustrial:
		return Generator{
			Class:            c,
			Arrivals:         PoissonArrivals{Rate: 0.03},
			Runtime:          sim.LogNormal{Mu: 5.0, Sigma: 0.5},
			TaskCPUs:         sim.Uniform{Low: 1, High: 2},
			TasksPerJob:      sim.Uniform{Low: 4, High: 20},
			WorkflowFraction: 0.9,
			EstimateNoise:    0.2,
			DeadlineFactor:   3,
		}
	default:
		panic(fmt.Sprintf("workload: unknown class %v", c))
	}
}
