package portfolio

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"atlarge/internal/cluster"
	"atlarge/internal/sched"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// Table9Row is one reproduced row of the paper's Table 9.
type Table9Row struct {
	Study       string
	Workload    string
	Environment string
	// Portfolio, BestStatic, WorstStatic are mean bounded slowdowns.
	Portfolio   float64
	BestStatic  float64
	WorstStatic float64
	BestPolicy  string
	WorstPolicy string
	// Finding is the reproduced verdict ("PS is useful" / "useful, but...").
	Finding string
	// NewQuestion echoes the co-evolving problem the row triggered.
	NewQuestion string
	// SelectionRegret is Portfolio/BestStatic - 1 (0 means the portfolio
	// matched the best static policy).
	SelectionRegret float64
}

// table9Spec describes one study row.
type table9Spec struct {
	study       string
	classes     []workload.Class
	envKinds    []cluster.Kind
	newQuestion string
}

// table9Specs mirrors the seven study rows of Table 9.
func table9Specs() []table9Spec {
	return []table9Spec{
		{"Deng'13 (JSSPP)", []workload.Class{workload.ClassSynthetic}, []cluster.Kind{cluster.KindCluster}, "Works online?"},
		{"Deng'13 (SC)", []workload.Class{workload.ClassScientific}, []cluster.Kind{cluster.KindGrid, cluster.KindCloud}, "Other W/Env?"},
		{"Shen'13 (Euro-Par)", []workload.Class{workload.ClassScientific, workload.ClassGaming}, []cluster.Kind{cluster.KindCluster}, "Other W/Env?"},
		{"Shai'13 (JSSPP)", []workload.Class{workload.ClassComputerEngineering}, []cluster.Kind{cluster.KindGeoDistributed}, "Other W/Env?"},
		{"van Beek'15 (Computer)", []workload.Class{workload.ClassBusinessCritical}, []cluster.Kind{cluster.KindMultiCluster}, "Other W/Env?"},
		{"Ma'17 (ICAC)", []workload.Class{workload.ClassIndustrial}, []cluster.Kind{cluster.KindCloud}, "Other W/Env?"},
		{"Voinea'18 (BigData)", []workload.Class{workload.ClassBigData}, []cluster.Kind{cluster.KindCluster}, "BD limits?"},
	}
}

// mixedTrace interleaves equal job counts from each class. The generated
// traces are mixedTrace's own, so their jobs are renumbered in place: job
// IDs run on across classes, and since a generated job's task IDs are
// consecutive, one offset per job rebases its task IDs and deps alike.
func mixedTrace(classes []workload.Class, jobsPerClass int, r *rand.Rand) *workload.Trace {
	out := &workload.Trace{Name: "mixed", Jobs: make([]*workload.Job, 0, len(classes)*jobsPerClass)}
	taskID := 0
	for _, c := range classes {
		tr := workload.StandardGenerator(c).Generate(jobsPerClass, r)
		for _, j := range tr.Jobs {
			j.ID = len(out.Jobs) + 1
			off := taskID + 1 - j.Tasks[0].ID
			for k := range j.Tasks {
				t := &j.Tasks[k]
				t.ID += off
				t.JobID = j.ID
				for d := range t.Deps {
					t.Deps[d] += off
				}
			}
			taskID += len(j.Tasks)
			out.Jobs = append(out.Jobs, j)
		}
	}
	out.SortBySubmit()
	return out
}

// compositeEnv joins the clusters of several environment kinds into one
// environment (used for the G+CD row).
func compositeEnv(kinds []cluster.Kind) *cluster.Environment {
	if len(kinds) == 1 {
		return cluster.StandardEnvironment(kinds[0])
	}
	env := &cluster.Environment{Kind: kinds[0]}
	for _, k := range kinds {
		sub := cluster.StandardEnvironment(k)
		env.Clusters = append(env.Clusters, sub.Clusters...)
		if sub.InterLatency > env.InterLatency {
			env.InterLatency = sub.InterLatency
		}
	}
	return env
}

// Table9Config parameterizes the experiment scale.
type Table9Config struct {
	JobsPerRow int
	WindowSize int
	// LoadFactor compresses submission times to raise contention; 1 keeps
	// the generators' native (light) load, larger values stress the
	// environments so policies differentiate.
	LoadFactor float64
	Seed       int64
	// Workers bounds the number of window simulations in flight; <= 0
	// means GOMAXPROCS. Every simulation has its own derived seed, so the
	// result is identical for any worker count.
	Workers int
}

// DefaultTable9Config returns the scale used by the benchmarks.
func DefaultTable9Config() Table9Config {
	return Table9Config{JobsPerRow: 160, WindowSize: 40, LoadFactor: 60, Seed: 42}
}

// RunTable9 reproduces the seven rows of Table 9: for each study row it runs
// the portfolio scheduler against all static baselines and derives the
// "PS is useful" verdict. Every window simulation of every row, once on
// runtimes and, where estimates are inexact, once on estimates, runs on one
// pool of cfg.Workers goroutines, each reusing one simulator from run to
// run. The pool takes the simulations in spec order and builds a row only
// when it reaches it; once a row's simulations are done its portfolio run
// and static baselines read them, and the row's windows are dropped.
// Results keep the spec order regardless of scheduling.
func RunTable9(cfg Table9Config) ([]Table9Row, error) {
	return newTable9Pool(cfg, nil).run()
}

// table9Pool runs the window simulations of every Table 9 row. A single
// cursor hands them out in spec order: row, window, policy, then runtimes
// before estimates.
type table9Pool struct {
	cfg   Table9Config
	specs []table9Spec
	rows  []Table9Row
	errs  []error
	// onRow, when set, sees each row's portfolio result and window runs
	// when the row is computed, on the worker that computes it.
	onRow func(i int, res *Result, runs *windowRuns)
	// sims lends every row's window simulations their simulators, so each
	// worker's run reuses the kernel and buffers of an earlier one.
	sims sched.FreeList

	mu    sync.Mutex
	built int         // rows the cursor has reached
	items []table9Sim // the reached row's simulations not handed out yet
}

// table9Sim is one window simulation: policy i on window w of row, from
// runtime estimates when est is set.
type table9Sim struct {
	row  *table9Pending
	i, w int
	est  bool
}

// table9Pending is a row whose simulations are not all done.
type table9Pending struct {
	i    int
	runs *windowRuns
	left atomic.Int32 // simulations not done yet
}

func newTable9Pool(cfg Table9Config, onRow func(int, *Result, *windowRuns)) *table9Pool {
	specs := table9Specs()
	return &table9Pool{
		cfg: cfg, specs: specs, onRow: onRow,
		rows: make([]Table9Row, len(specs)), errs: make([]error, len(specs)),
	}
}

func (p *table9Pool) run() ([]Table9Row, error) {
	workers := p.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, ok := p.next()
				if !ok {
					return
				}
				it.row.runs.get(it.i, it.w, it.est)
				if it.row.left.Add(-1) == 0 {
					p.finish(it.row)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return nil, err
		}
	}
	return p.rows, nil
}

// next hands out the next simulation, building rows as the cursor reaches
// them; ok is false once every row's simulations are handed out.
func (p *table9Pool) next() (it table9Sim, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.items) == 0 {
		if p.built == len(p.specs) {
			return table9Sim{}, false
		}
		p.reach(p.built)
		p.built++
	}
	it, p.items = p.items[0], p.items[1:]
	return it, true
}

// reach builds row i and queues its simulations. A row without any is
// computed at once.
func (p *table9Pool) reach(i int) {
	s, tr := table9Row(p.cfg, p.specs[i], i)
	s.Simulators = &p.sims
	runs, err := s.windowRuns(tr)
	if err != nil {
		p.errs[i] = fmt.Errorf("portfolio: row %s: %w", p.specs[i].study, err)
		return
	}
	row := &table9Pending{i: i, runs: runs}
	items := make([]table9Sim, 0, 2*len(runs.windows)*len(s.Policies))
	for w := range runs.windows {
		for pi := range s.Policies {
			items = append(items, table9Sim{row: row, i: pi, w: w})
			if !runs.exact[w] {
				items = append(items, table9Sim{row: row, i: pi, w: w, est: true})
			}
		}
	}
	if len(items) == 0 {
		p.finish(row)
		return
	}
	row.left.Store(int32(len(items)))
	p.items = items
}

// finish computes a row whose simulations are all done and drops its
// windows.
func (p *table9Pool) finish(row *table9Pending) {
	p.rows[row.i], p.errs[row.i] = p.result(row)
	row.runs = nil
}

// result runs row's portfolio and static baselines over its window runs and
// derives the Table 9 row.
func (p *table9Pool) result(row *table9Pending) (Table9Row, error) {
	spec, s, runs := p.specs[row.i], row.runs.s, row.runs
	res, err := s.run(runs)
	if err != nil {
		return Table9Row{}, fmt.Errorf("portfolio: row %s: %w", spec.study, err)
	}
	if p.onRow != nil {
		p.onRow(row.i, res, runs)
	}
	baselines, err := s.staticBaselines(runs)
	if err != nil {
		return Table9Row{}, fmt.Errorf("portfolio: row %s baselines: %w", spec.study, err)
	}

	out := Table9Row{
		Study:       spec.study,
		Workload:    classesLabel(spec.classes),
		Environment: kindsLabel(spec.envKinds),
		Portfolio:   res.MeanSlowdown,
		NewQuestion: spec.newQuestion,
	}
	out.BestStatic, out.WorstStatic = bestWorst(baselines, s.Policies, &out.BestPolicy, &out.WorstPolicy)
	if out.BestStatic > 0 {
		out.SelectionRegret = out.Portfolio/out.BestStatic - 1
	}
	out.Finding = verdict(out)
	return out, nil
}

// table9Row builds study row i's trace (derived seed, compressed submits)
// and its exhaustive portfolio scheduler.
func table9Row(cfg Table9Config, spec table9Spec, i int) (*Scheduler, *workload.Trace) {
	r := rand.New(rand.NewSource(cfg.Seed + int64(i)))
	jobsPerClass := cfg.JobsPerRow / len(spec.classes)
	tr := mixedTrace(spec.classes, jobsPerClass, r)
	if cfg.LoadFactor > 1 {
		for _, j := range tr.Jobs {
			j.Submit /= sim.Time(cfg.LoadFactor)
		}
	}
	return &Scheduler{
		Policies:   sched.DefaultPortfolio(),
		WindowSize: cfg.WindowSize,
		EnvFactory: func() *cluster.Environment { return compositeEnv(spec.envKinds) },
		Seed:       cfg.Seed + int64(i),
	}, tr
}

func classesLabel(cs []workload.Class) string {
	s := ""
	for i, c := range cs {
		if i > 0 {
			s += "+"
		}
		s += c.String()
	}
	return s
}

func kindsLabel(ks []cluster.Kind) string {
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += "+"
		}
		s += k.String()
	}
	return s
}

// bestWorst scans baselines in portfolio order so ties resolve to the
// first-listed policy; iterating the map directly would make tied rows
// nondeterministic across runs.
func bestWorst(baselines map[string]float64, order []sched.Policy, bestName, worstName *string) (best, worst float64) {
	first := true
	for _, p := range order {
		name := p.Name()
		v, ok := baselines[name]
		if !ok {
			continue
		}
		if first {
			best, worst = v, v
			*bestName, *worstName = name, name
			first = false
			continue
		}
		if v < best {
			best = v
			*bestName = name
		}
		if v > worst {
			worst = v
			*worstName = name
		}
	}
	return best, worst
}

// verdict derives the Table 9 finding string. The thresholds encode the
// paper's qualitative claims: PS is "useful" when it lands near the best
// static policy; the big-data row is expected to show measurable regret
// ("useful, but...") because runtime estimates there are poor.
func verdict(row Table9Row) string {
	switch {
	case row.SelectionRegret <= 0.10 && row.Portfolio <= row.WorstStatic:
		return "PS is useful"
	case row.Portfolio <= row.WorstStatic:
		return "PS is useful, but selection shows regret"
	default:
		return "PS underperforms (unpredictable runtimes)"
	}
}
