package atlarge

import (
	"context"
	"sort"

	"atlarge/internal/autoscale"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "autoscale",
		Title: "§6.7: autoscaling experiments (in-vitro + in-silico)",
		Tags:  []string{"section", "autoscale", "fast"},
		Order: 110,
		Run:   runAutoscale,
	})
}

func runAutoscale(_ context.Context, seed int64) (*Report, error) {
	cfg := autoscale.DefaultExperimentConfig()
	cfg.Seed = seed
	res, err := autoscale.RunExperiment(cfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("autoscale", "§6.7: autoscaling experiments (in-vitro + in-silico)")
	var names []string
	for n := range res.Vitro {
		names = append(names, n)
	}
	// Tie-break equal ranks by name: names starts in map order, so an
	// unstable sort on rank alone would order tied policies randomly.
	sort.Slice(names, func(i, j int) bool {
		ri, rj := res.AvgRankVitro[names[i]], res.AvgRankVitro[names[j]]
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	t := rep.AddTable("policies",
		"policy", "avg_rank", "grade", "acc_under", "acc_over",
		"tshare_under", "tshare_over", "response", "slowdown", "cost_per_h", "deadline_miss")
	for _, n := range names {
		m := res.Vitro[n]
		t.AddRow(Label(n),
			Num(res.AvgRankVitro[n], "%.1f"), Num(res.GradesVitro[n], "%.2f"),
			Num(m.AccuracyUnder, "%.3f"), Num(m.AccuracyOver, "%.3f"),
			Num(m.TimeshareUnder, "%.2f"), Num(m.TimeshareOver, "%.2f"),
			NumUnit(m.MeanResponse, "%.0f", "s"), Num(m.MeanSlowdown, "%.2f"),
			NumUnit(res.CostByModel["per-hour"][n], "%.2f", "$"),
			NumUnit(m.DeadlineMissPct, "%.0f", "%"))
	}
	rep.AddMetric(Metric{
		Name: "rank_correlation_spearman", Value: res.RankCorrelation, HigherBetter: true})
	rep.AddNote("in-vitro vs in-silico rankings corroborate but are not identical")
	return rep, nil
}
