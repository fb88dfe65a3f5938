package atlarge

import (
	"context"
	"sort"

	"atlarge/internal/graphproc"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "tab8",
		Title: "Table 8: the Graphalytics ecosystem and the PAD/HPAD laws",
		Tags:  []string{"table", "graphproc", "fast"},
		Order: 90,
		Run:   runTab8,
	})
}

func runTab8(_ context.Context, seed int64) (*Report, error) {
	cfg := graphproc.DefaultBenchmarkConfig()
	cfg.Seed = seed
	res, err := graphproc.RunBenchmark(cfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("tab8", "Table 8: the Graphalytics ecosystem and the PAD/HPAD laws")
	pad, err := graphproc.AnalyzePAD(res)
	if err != nil {
		return nil, err
	}
	rep.AddMetric(Metric{Name: "pad_distinct_winners", Value: float64(pad.DistinctWinners), HigherBetter: true})
	rep.AddMetric(Metric{Name: "variance_frac_platform", Value: pad.PlatformFrac})
	rep.AddMetric(Metric{Name: "variance_frac_workload", Value: pad.WorkloadFrac})
	rep.AddMetric(Metric{Name: "variance_frac_interaction", Value: pad.InteractionFrac})
	var cols []string
	for c := range pad.WinnerByColumn {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	t := rep.AddTable("winners", "column", "winner")
	for _, c := range cols {
		t.AddRow(Label(c), Label(pad.WinnerByColumn[c]))
	}
	hpad, err := graphproc.AnalyzeHPAD(res, cfg.Engines)
	if err != nil {
		return nil, err
	}
	rep.AddMetric(Metric{Name: "hpad_winners_without_h", Value: float64(hpad.WinnersWithoutH), HigherBetter: true})
	rep.AddMetric(Metric{Name: "hpad_winners_with_h", Value: float64(hpad.WinnersWithH), HigherBetter: true})
	rep.AddMetric(Metric{Name: "hpad_h_wins_columns", Value: float64(hpad.HWinsColumns), HigherBetter: true})
	return rep, nil
}
