package atlarge

import (
	"context"

	"atlarge/internal/portfolio"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "tab9",
		Title: "Table 9: portfolio scheduling across workloads and environments",
		Tags:  []string{"table", "portfolio", "slow"},
		Order: 100,
		Run:   runTab9,
	})
}

func runTab9(ctx context.Context, seed int64) (*Report, error) {
	cfg := portfolio.DefaultTable9Config()
	cfg.Seed = seed
	rows, err := portfolio.RunTable9(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("tab9", "Table 9: portfolio scheduling across workloads and environments")
	t := rep.AddTable("portfolio",
		"study", "workload", "environment", "portfolio_slowdown",
		"best_static", "best_policy", "worst_static", "worst_policy",
		"selection_regret_pct", "finding", "next_question")
	var regretSum, psSum float64
	for _, r := range rows {
		t.AddRow(Label(r.Study), Label(r.Workload), Label(r.Environment),
			Num(r.Portfolio, "%.2f"),
			Num(r.BestStatic, "%.2f"), Label(r.BestPolicy),
			Num(r.WorstStatic, "%.2f"), Label(r.WorstPolicy),
			NumUnit(100*r.SelectionRegret, "%+.1f", "%"),
			Label(r.Finding), Label(r.NewQuestion))
		regretSum += 100 * r.SelectionRegret
		psSum += r.Portfolio
	}
	n := float64(len(rows))
	rep.AddMetric(Metric{Name: "mean_portfolio_slowdown", Value: psSum / n})
	rep.AddMetric(Metric{Name: "mean_selection_regret_pct", Value: regretSum / n, Unit: "%"})
	return rep, nil
}
