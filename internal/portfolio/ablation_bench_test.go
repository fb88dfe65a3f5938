package portfolio

import (
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

// noisyTrace builds a big-data-shaped trace with a chosen estimate noise and
// compressed submissions for contention.
func noisyTrace(noise float64, jobs int, seed int64) *workload.Trace {
	g := workload.StandardGenerator(workload.ClassBigData)
	g.EstimateNoise = noise
	tr := g.Generate(jobs, rand.New(rand.NewSource(seed)))
	for _, j := range tr.Jobs {
		j.Submit /= 30
	}
	return tr
}

// BenchmarkAblationEstimateNoise measures how runtime-estimate noise
// corrupts portfolio selection — the mechanism behind the POSUM finding.
// Reported per noise level: realized regret vs the best static policy, and
// the fraction of windows where the estimate-driven choice disagrees with an
// oracle that picks the best policy on true runtimes (lowest portfolio
// index on ties).
func BenchmarkAblationEstimateNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, noise := range []float64{0, 1.0, 2.5, 5.0} {
			s := &Scheduler{
				Policies:   sched.DefaultPortfolio(),
				WindowSize: 20,
				EnvFactory: func() *cluster.Environment { return cluster.StandardEnvironment(cluster.KindCluster) },
				Seed:       7,
			}
			runs, err := s.windowRuns(noisyTrace(noise, 80, 7))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.run(runs)
			if err != nil {
				b.Fatal(err)
			}
			base, err := s.staticBaselines(runs)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			first := true
			for _, v := range base {
				if first || v < best {
					best = v
					first = false
				}
			}
			regret := 0.0
			if best > 0 {
				regret = res.MeanSlowdown/best - 1
			}
			disagree := 0
			for w, choice := range res.Choices {
				oracle := 0
				for p := range s.Policies {
					if runs.get(p, w, false).res.MeanSlowdown < runs.get(oracle, w, false).res.MeanSlowdown {
						oracle = p
					}
				}
				if choice.Policy != s.Policies[oracle].Name() {
					disagree++
				}
			}
			if i == 0 {
				b.Logf("estimate-noise=%.1f portfolio=%.3f best-static=%.3f regret=%+.1f%% oracle-disagreement=%d/%d windows",
					noise, res.MeanSlowdown, best, 100*regret, disagree, len(res.Choices))
			}
		}
	}
}
