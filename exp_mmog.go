package atlarge

import (
	"context"

	"atlarge/internal/mmog"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "tab6",
		Title: "Table 6: co-evolving problem-solutions in MMOG",
		Tags:  []string{"table", "mmog", "fast"},
		Order: 70,
		Run:   runTab6,
	})
}

func runTab6(_ context.Context, seed int64) (*Report, error) {
	rows := mmog.RunTable6(seed)
	rep := NewReport("tab6", "Table 6: co-evolving problem-solutions in MMOG")
	t := rep.AddTable("studies", "study", "feature", "finding")
	for _, r := range rows {
		t.AddRow(Label(r.Study), Label(r.Feature), Label(r.Finding))
	}
	rep.AddMetric(Metric{Name: "studies", Value: float64(len(rows)), HigherBetter: true})
	return rep, nil
}
