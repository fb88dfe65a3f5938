package portfolio

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

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

// mixedTrace interleaves equal job counts from each class.
func mixedTrace(classes []workload.Class, jobsPerClass int, r *rand.Rand) *workload.Trace {
	out := &workload.Trace{Name: "mixed"}
	id := 0
	taskID := 0
	for _, c := range classes {
		tr := workload.StandardGenerator(c).Generate(jobsPerClass, r)
		for _, j := range tr.Jobs {
			id++
			nj := *j
			nj.ID = id
			nj.Tasks = append([]workload.Task(nil), j.Tasks...)
			remap := make(map[int]int, len(nj.Tasks))
			for k := range nj.Tasks {
				taskID++
				remap[nj.Tasks[k].ID] = taskID
				nj.Tasks[k].ID = taskID
				nj.Tasks[k].JobID = id
			}
			for k := range nj.Tasks {
				for d := range nj.Tasks[k].Deps {
					nj.Tasks[k].Deps[d] = remap[nj.Tasks[k].Deps[d]]
				}
			}
			out.Jobs = append(out.Jobs, &nj)
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
	// Workers bounds the number of study rows simulated concurrently;
	// <= 0 means GOMAXPROCS. Every row derives its own seed, so the
	// result is identical for any worker count.
	Workers int
}

// DefaultTable9Config returns the scale used by the benchmarks.
func DefaultTable9Config() Table9Config {
	return Table9Config{JobsPerRow: 160, WindowSize: 40, LoadFactor: 60, Seed: 42}
}

// RunTable9 reproduces the seven rows of Table 9: for each study row it runs
// the portfolio scheduler against all static baselines and derives the
// "PS is useful" verdict. Rows are independent simulations with per-row
// seeds, so they execute on a bounded worker pool; results keep the spec
// order regardless of scheduling.
func RunTable9(cfg Table9Config) ([]Table9Row, error) {
	specs := table9Specs()
	rows := make([]Table9Row, len(specs))
	errs := make([]error, len(specs))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rows[i], errs[i] = runTable9Row(cfg, specs[i], i)
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
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
		Selector:   Exhaustive{},
		WindowSize: cfg.WindowSize,
		EnvFactory: func() *cluster.Environment { return compositeEnv(spec.envKinds) },
		Seed:       cfg.Seed + int64(i),
	}, tr
}

// runTable9Row simulates one study row with its derived seed. The portfolio
// run and the static baselines share their window simulations.
func runTable9Row(cfg Table9Config, spec table9Spec, i int) (Table9Row, error) {
	s, tr := table9Row(cfg, spec, i)
	runs, err := s.windowRuns(tr)
	if err != nil {
		return Table9Row{}, fmt.Errorf("portfolio: row %s: %w", spec.study, err)
	}
	res, err := s.run(runs)
	if err != nil {
		return Table9Row{}, fmt.Errorf("portfolio: row %s: %w", spec.study, err)
	}
	baselines, err := s.staticBaselines(runs)
	if err != nil {
		return Table9Row{}, fmt.Errorf("portfolio: row %s baselines: %w", spec.study, err)
	}

	row := Table9Row{
		Study:       spec.study,
		Workload:    classesLabel(spec.classes),
		Environment: kindsLabel(spec.envKinds),
		Portfolio:   res.MeanSlowdown,
		NewQuestion: spec.newQuestion,
	}
	row.BestStatic, row.WorstStatic = bestWorst(baselines, s.Policies, &row.BestPolicy, &row.WorstPolicy)
	if row.BestStatic > 0 {
		row.SelectionRegret = row.Portfolio/row.BestStatic - 1
	}
	row.Finding = verdict(row)
	return row, nil
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
