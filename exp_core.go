package atlarge

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"atlarge/internal/core"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "bdc",
		Title: "Tables 1-3 + Figure 8: framework catalog and BDC mechanics",
		Tags:  []string{"table", "framework", "core", "fast"},
		Order: 120,
		Run:   runBDC,
	})
}

func runBDC(_ context.Context, seed int64) (*Report, error) {
	if err := core.ValidateCatalog(); err != nil {
		return nil, err
	}
	rep := NewReport("bdc", "Tables 1-3 + Figure 8: framework catalog and BDC mechanics")
	pt := rep.AddTable("principles", "principle", "category", "text")
	for _, p := range core.Principles() {
		pt.AddRow(Labelf("P%d", p.Index), Labelf("%s", p.Category), Label(p.Text))
	}
	ct := rep.AddTable("challenges", "challenge", "category", "key", "principles")
	for _, c := range core.Challenges() {
		ps := make([]string, len(c.Principles))
		for i, pi := range c.Principles {
			ps[i] = fmt.Sprintf("P%d", pi)
		}
		ct.AddRow(Labelf("C%d", c.Index), Labelf("%s", c.Category), Label(c.Key), Label(strings.Join(ps, ",")))
	}
	rep.AddMetric(Metric{Name: "principles", Value: float64(len(core.Principles()))})
	rep.AddMetric(Metric{Name: "challenges", Value: float64(len(core.Challenges()))})

	// Run a demonstration BDC: a noisy design search that satisfices.
	r := rand.New(rand.NewSource(seed))
	cy := &core.Cycle{
		Name: "demo",
		Stages: map[core.Stage]core.StageFunc{
			core.StageDesign: func(ctx *core.Context) error {
				score := r.Float64()
				ctx.AddSolution(core.Artifact{Name: "candidate", Score: score, Satisficing: score > 0.8})
				return nil
			},
		},
		Stop: core.StoppingCriteria{SatisficeAfter: 1, MaxIterations: 100},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		return nil, err
	}
	rep.AddMetric(Metric{Name: "demo_bdc_iterations", Value: float64(len(tr.Iterations))})
	rep.AddMetric(Metric{Name: "demo_bdc_solutions", Value: float64(len(tr.Solutions)), HigherBetter: true})
	rep.AddMetric(Metric{Name: "demo_bdc_failures", Value: float64(tr.Failures)})
	rep.AddNote("demo BDC stop criterion: %s", tr.Stop)

	// Figure 4: the pre-training student design under the review rubric.
	student := core.Figure4StudentDesign()
	rep.AddMetric(Metric{Name: "fig4_student_score", Value: student.Score(), HigherBetter: true})
	rep.AddNote("Figure 4 student design assessed %s; missing: %s",
		student.Assess(), strings.Join(student.Missing(0.5), ", "))
	return rep, nil
}
