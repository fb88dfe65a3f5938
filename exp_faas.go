package atlarge

import (
	"context"

	"atlarge/internal/faas"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "tab7",
		Title: "Table 7: co-evolving problem-solutions in serverless",
		Tags:  []string{"table", "faas", "fast"},
		Order: 80,
		Run:   runTab7,
	})
}

func runTab7(_ context.Context, seed int64) (*Report, error) {
	rows, err := faas.RunTable7(seed)
	if err != nil {
		return nil, err
	}
	rep := NewReport("tab7", "Table 7: co-evolving problem-solutions in serverless")
	t := rep.AddTable("studies", "study", "feature", "finding")
	for _, r := range rows {
		t.AddRow(Label(r.Study), Label(r.Feature), Label(r.Finding))
	}
	rep.AddMetric(Metric{Name: "studies", Value: float64(len(rows)), HigherBetter: true})
	return rep, nil
}
