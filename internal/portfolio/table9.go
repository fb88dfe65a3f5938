package portfolio

import (
	"context"
	"fmt"
	"math/rand"

	"atlarge/internal/cluster"
	"atlarge/internal/exec"
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
}

// DefaultTable9Config returns the scale used by the benchmarks.
func DefaultTable9Config() Table9Config {
	return Table9Config{JobsPerRow: 160, WindowSize: 40, LoadFactor: 60, Seed: 42}
}

// RunTable9 reproduces the seven rows of Table 9: for each study row it runs
// the portfolio scheduler against all static baselines and derives the
// "PS is useful" verdict. Rows are built one at a time, in spec order. Each
// row's window simulations, once on runtimes and, where estimates are
// inexact, once on estimates, run as one exec plan on ctx, so cancelling
// ctx stops the table between simulations; the row's portfolio run and
// static baselines then read them from the memo. Every simulation has its
// own derived seed, so the rows are identical at any parallelism.
func RunTable9(ctx context.Context, cfg Table9Config) ([]Table9Row, error) {
	return runTable9(ctx, cfg, nil)
}

// runTable9 is RunTable9 with a hook: onRow, when set, sees each row's
// portfolio result and window runs when the row is computed.
func runTable9(ctx context.Context, cfg Table9Config, onRow func(i int, res *Result, runs *windowRuns)) ([]Table9Row, error) {
	// sims lends every row's window simulations their simulators, so a
	// simulation reuses the kernel and buffers of an earlier one.
	var sims sched.FreeList
	specs := table9Specs()
	rows := make([]Table9Row, len(specs))
	for i, spec := range specs {
		s, tr := table9Row(cfg, spec, i)
		s.Simulators = &sims
		runs, err := s.windowRuns(tr)
		if err == nil {
			err = runs.simulate(ctx)
		}
		var res *Result
		if err == nil {
			res, err = s.run(runs)
		}
		if err != nil {
			return nil, fmt.Errorf("portfolio: row %s: %w", spec.study, err)
		}
		if onRow != nil {
			onRow(i, res, runs)
		}
		baselines, err := s.staticBaselines(runs)
		if err != nil {
			return nil, fmt.Errorf("portfolio: row %s baselines: %w", spec.study, err)
		}
		rows[i] = table9Result(spec, res.MeanSlowdown, baselines, s.Policies)
	}
	return rows, nil
}

// simulate runs every window simulation of runs as one exec plan on ctx, in
// the order window, policy, then runtimes before estimates; each task fills
// its own slot. It returns the first task error in plan order: a recovered
// panic, or ctx's error for the tasks skipped after cancellation.
func (r *windowRuns) simulate(ctx context.Context) error {
	var p exec.Plan[struct{}]
	add := func(id string, i, w int, est bool) {
		p.Add(id, func(context.Context) (struct{}, error) {
			r.get(i, w, est)
			return struct{}{}, nil
		})
	}
	for w := range r.windows {
		for i, pol := range r.s.Policies {
			add(fmt.Sprintf("w%d/%s", w, pol.Name()), i, w, false)
			if r.est[w] != nil {
				add(fmt.Sprintf("w%d/%s/est", w, pol.Name()), i, w, true)
			}
		}
	}
	_, errs := exec.Run(ctx, &p, exec.Options[struct{}]{})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// table9Result derives a row of Table 9 from its portfolio's mean slowdown
// and the static baselines of the policies in order.
func table9Result(spec table9Spec, portfolio float64, baselines map[string]float64, order []sched.Policy) Table9Row {
	out := Table9Row{
		Study:       spec.study,
		Workload:    classesLabel(spec.classes),
		Environment: kindsLabel(spec.envKinds),
		Portfolio:   portfolio,
		NewQuestion: spec.newQuestion,
	}
	out.BestStatic, out.WorstStatic = bestWorst(baselines, order, &out.BestPolicy, &out.WorstPolicy)
	if out.BestStatic > 0 {
		out.SelectionRegret = out.Portfolio/out.BestStatic - 1
	}
	out.Finding = verdict(out)
	return out
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
