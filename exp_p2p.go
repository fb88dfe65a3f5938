package atlarge

import (
	"context"

	"atlarge/internal/p2p"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "tab5",
		Title: "Table 5: co-evolving problem-solutions in P2P",
		Tags:  []string{"table", "p2p", "fast"},
		Order: 60,
		Run:   runTab5,
	})
}

func runTab5(_ context.Context, seed int64) (*Report, error) {
	rows, err := p2p.RunTable5(seed)
	if err != nil {
		return nil, err
	}
	rep := NewReport("tab5", "Table 5: co-evolving problem-solutions in P2P")
	t := rep.AddTable("studies", "study", "feature", "finding")
	for _, r := range rows {
		t.AddRow(Label(r.Study), Label(r.Feature), Label(r.Finding))
	}
	rep.AddMetric(Metric{Name: "studies", Value: float64(len(rows)), HigherBetter: true})
	return rep, nil
}
