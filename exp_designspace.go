package atlarge

import (
	"context"
	"sort"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "fig7",
		Title: "Figures 6-7: design-space exploration processes",
		Tags:  []string{"figure", "designspace", "fast"},
		Order: 40,
		Run:   runFig7,
	})
}

func runFig7(_ context.Context, seed int64) (*Report, error) {
	res, err := RunFigure7(6, 2, 0.06, 600, seed)
	if err != nil {
		return nil, err
	}
	rep := NewReport("fig7", "Figures 6-7: design-space exploration processes")
	var names []string
	for n := range res.Outcomes {
		names = append(names, n)
	}
	sort.Strings(names)
	t := rep.AddTable("processes", "process", "attempts", "solutions", "failures", "hit_rate")
	for _, n := range names {
		o := res.Outcomes[n]
		t.AddRow(Label(n), Count(o.Attempts), Count(o.Solutions), Count(o.Failures),
			Num(o.HitRate, "%.3f"))
	}
	co := res.CoEvolving
	h1, h2 := 0.0, 0.0
	if co.Phase1.Attempts > 0 {
		h1 = float64(co.Phase1.Solutions) / float64(co.Phase1.Attempts)
	}
	if co.Phase2.Attempts > 0 {
		h2 = float64(co.Phase2.Solutions) / float64(co.Phase2.Attempts)
	}
	evolved := 0.0
	if co.Evolved {
		evolved = 1
	}
	rep.AddMetric(Metric{Name: "coevolve_phase1_hit_rate", Value: h1, HigherBetter: true})
	rep.AddMetric(Metric{Name: "coevolve_phase2_hit_rate", Value: h2, HigherBetter: true})
	rep.AddMetric(Metric{Name: "coevolve_evolved", Value: evolved, HigherBetter: true})
	return rep, nil
}
