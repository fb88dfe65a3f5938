package atlarge

import (
	"context"
	"strings"

	"atlarge/internal/refarch"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "fig9",
		Title: "Figure 9: datacenter reference architecture coverage",
		Tags:  []string{"figure", "refarch", "fast"},
		Order: 50,
		Run:   func(context.Context, int64) (*Report, error) { return runFig9() },
	})
}

func runFig9() (*Report, error) {
	reg, err := refarch.StandardRegistry()
	if err != nil {
		return nil, err
	}
	rep := NewReport("fig9", "Figure 9: datacenter reference architecture coverage")
	cov := refarch.AnalyzeCoverage(reg)
	rep.AddMetric(Metric{Name: "components_total", Value: float64(cov.Total), HigherBetter: true})
	rep.AddMetric(Metric{Name: "old_arch_placeable", Value: float64(cov.OldPlaceable), HigherBetter: true})
	rep.AddMetric(Metric{Name: "new_arch_placeable", Value: float64(cov.NewPlaceable), HigherBetter: true})
	rep.AddMetric(Metric{Name: "old_arch_unplaceable", Value: float64(len(cov.Unplaceable))})
	rep.AddNote("unplaceable in old architecture: %s", strings.Join(cov.Unplaceable, ", "))
	lt := rep.AddTable("layers", "layer", "name", "components")
	for _, l := range refarch.Layers() {
		var names []string
		for _, c := range reg.ByLayer(l) {
			names = append(names, c.Name)
		}
		lt.AddRow(Count(int(l)), Label(l.String()), Label(strings.Join(names, ", ")))
	}
	mt := rep.AddTable("mappings", "ecosystem", "components")
	for _, m := range refarch.IndustryMappings() {
		if err := refarch.ValidateMapping(reg, m); err != nil {
			return nil, err
		}
		mt.AddRow(Label(m.Ecosystem), Count(len(m.Components)))
	}
	return rep, nil
}
