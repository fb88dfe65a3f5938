package core

import (
	"errors"
	"testing"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		what, how, outcome bool
		want               ReasoningMode
	}{
		{true, true, false, Deduction},
		{true, false, true, Induction},
		{false, true, true, NormalAbduction},
		{false, false, true, DesignAbduction},
		{false, false, false, Unreasoning},
		{true, true, true, Unreasoning},
	}
	for _, tt := range tests {
		if got := Classify(tt.what, tt.how, tt.outcome); got != tt.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", tt.what, tt.how, tt.outcome, got, tt.want)
		}
	}
	if !DesignAbduction.IsDesign() || Deduction.IsDesign() {
		t.Error("IsDesign wrong")
	}
}

func TestCatalogsMatchPaper(t *testing.T) {
	if err := ValidateCatalog(); err != nil {
		t.Fatal(err)
	}
	ps := Principles()
	if len(ps) != 8 {
		t.Fatalf("principles = %d", len(ps))
	}
	// Category partition per Table 2: P1 highest, P2-4 systems, P5-6
	// peopleware, P7-8 methodology.
	wantCat := map[int]Category{
		1: CategoryHighest, 2: CategorySystems, 3: CategorySystems,
		4: CategorySystems, 5: CategoryPeopleware, 6: CategoryPeopleware,
		7: CategoryMethodology, 8: CategoryMethodology,
	}
	for _, p := range ps {
		if p.Category != wantCat[p.Index] {
			t.Errorf("P%d category = %v, want %v", p.Index, p.Category, wantCat[p.Index])
		}
		if p.Text == "" || p.Key == "" {
			t.Errorf("P%d incomplete", p.Index)
		}
	}
	cs := Challenges()
	if len(cs) != 10 {
		t.Fatalf("challenges = %d", len(cs))
	}
	// C5 cites P3-4, C8 cites P5-7 (Table 3).
	for _, c := range cs {
		if c.Index == 5 && len(c.Principles) != 2 {
			t.Errorf("C5 cites %v", c.Principles)
		}
		if c.Index == 8 && len(c.Principles) != 3 {
			t.Errorf("C8 cites %v", c.Principles)
		}
	}
}

func TestProblemCatalogs(t *testing.T) {
	if got := len(ProblemArchetypes()); got != 5 {
		t.Errorf("archetypes = %d, want 5", got)
	}
}

func TestClassifyProblem(t *testing.T) {
	well := ProblemTraits{
		AutomaticEvaluation: true, UnambiguousStates: true,
		CompleteKnowledge: true, AccurateNatureModel: true, Tractable: true,
	}
	if got := ClassifyProblem(well); got != WellStructured {
		t.Errorf("well-structured = %v", got)
	}
	ill := well
	ill.CompleteKnowledge = false
	if got := ClassifyProblem(ill); got != IllStructured {
		t.Errorf("ill-structured = %v", got)
	}
	wicked := well
	wicked.CompetingStakeholder = true
	if got := ClassifyProblem(wicked); got != Wicked {
		t.Errorf("wicked = %v", got)
	}
	// Wickedness dominates missing traits.
	both := ill
	both.NoFinalFormulation = true
	if got := ClassifyProblem(both); got != Wicked {
		t.Errorf("wicked+ill = %v", got)
	}
}

func TestAssessCreativity(t *testing.T) {
	tests := []struct {
		adapted, new float64
		ecosystem    bool
		want         CreativityLevel
	}{
		{0.02, 0, false, TrivialDesign},
		{0.3, 0, false, NormalDesign},
		{0.5, 0.1, false, NovelDesign},
		{0.2, 0.6, false, FundamentalDesign},
		{0, 0, true, OutstandingDesign},
	}
	for _, tt := range tests {
		got, err := AssessCreativity(tt.adapted, tt.new, tt.ecosystem)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("AssessCreativity(%v,%v,%v) = %v, want %v",
				tt.adapted, tt.new, tt.ecosystem, got, tt.want)
		}
	}
	if _, err := AssessCreativity(0.8, 0.5, false); err == nil {
		t.Error("over-1 shares accepted")
	}
	if _, err := AssessCreativity(-0.1, 0, false); err == nil {
		t.Error("negative share accepted")
	}
}

func TestOverviewComplete(t *testing.T) {
	ov := Overview()
	if len(ov.Stakeholders) != 5 {
		t.Errorf("stakeholders = %d, want 5 (Table 1)", len(ov.Stakeholders))
	}
	if ov.CentralPremise == "" || len(ov.Processes) != 4 {
		t.Errorf("overview incomplete: %+v", ov)
	}
}

func TestCycleRequiresBudget(t *testing.T) {
	cy := &Cycle{Name: "x"}
	if _, err := cy.Run(nil); err == nil {
		t.Error("cycle without MaxIterations accepted")
	}
}

func TestCycleStopsOnSatisfice(t *testing.T) {
	attempts := 0
	cy := &Cycle{
		Name: "satisfice",
		Stages: map[Stage]StageFunc{
			StageDesign: func(ctx *Context) error {
				attempts++
				ctx.AddSolution(Artifact{Name: "d", Score: 1, Satisficing: attempts >= 3})
				return nil
			},
		},
		Stop: StoppingCriteria{SatisficeAfter: 1, MaxIterations: 100},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stop != StopSatisficed {
		t.Errorf("stop = %v, want satisficed", tr.Stop)
	}
	if len(tr.Iterations) != 3 {
		t.Errorf("iterations = %d, want 3", len(tr.Iterations))
	}
	if tr.Failures != 2 {
		t.Errorf("failures = %d, want 2", tr.Failures)
	}
}

func TestCycleStopsOnBudget(t *testing.T) {
	cy := &Cycle{
		Name: "hopeless",
		Stages: map[Stage]StageFunc{
			StageDesign: func(ctx *Context) error {
				ctx.AddSolution(Artifact{Name: "bad"})
				return nil
			},
		},
		Stop: StoppingCriteria{SatisficeAfter: 1, MaxIterations: 5},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stop != StopBudget {
		t.Errorf("stop = %v, want budget (BDC does not guarantee success)", tr.Stop)
	}
	if len(tr.Iterations) != 5 {
		t.Errorf("iterations = %d", len(tr.Iterations))
	}
}

func TestCyclePortfolioAndSystematic(t *testing.T) {
	mk := func(stop StoppingCriteria) *Trace {
		cy := &Cycle{
			Name: "many",
			Stages: map[Stage]StageFunc{
				StageDesign: func(ctx *Context) error {
					ctx.AddSolution(Artifact{Name: "ok", Satisficing: true})
					return nil
				},
			},
			Stop: stop,
		}
		tr, err := cy.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := mk(StoppingCriteria{PortfolioSize: 3, MaxIterations: 100})
	if tr.Stop != StopPortfolio || len(tr.Solutions) != 3 {
		t.Errorf("portfolio stop = %v with %d solutions", tr.Stop, len(tr.Solutions))
	}
	tr = mk(StoppingCriteria{SystematicSize: 7, MaxIterations: 100})
	if tr.Stop != StopSystematic || len(tr.Solutions) != 7 {
		t.Errorf("systematic stop = %v with %d solutions", tr.Stop, len(tr.Solutions))
	}
}

func TestCycleSpaceExhaustion(t *testing.T) {
	cy := &Cycle{
		Name:   "exhaust",
		Stages: map[Stage]StageFunc{StageDesign: func(*Context) error { return nil }},
		Stop: StoppingCriteria{
			SpaceExhausted: func(ctx *Context) bool { return ctx.Iteration >= 4 },
			MaxIterations:  100,
		},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stop != StopExhausted {
		t.Errorf("stop = %v, want exhausted", tr.Stop)
	}
}

func TestCycleSkipsMissingStagesAndPolicy(t *testing.T) {
	var executed []Stage
	cy := &Cycle{
		Name: "skippy",
		Stages: map[Stage]StageFunc{
			StageFormulateRequirements: func(*Context) error { executed = append(executed, StageFormulateRequirements); return nil },
			StageDesign:                func(*Context) error { executed = append(executed, StageDesign); return nil },
			StageReporting:             func(*Context) error { executed = append(executed, StageReporting); return nil },
		},
		SkipPolicy: func(iter int, s Stage) bool {
			// Skip requirements after the first iteration (the OP tailors
			// iterations to the remaining problem).
			return iter > 1 && s == StageFormulateRequirements
		},
		Stop: StoppingCriteria{MaxIterations: 2},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) != 2 {
		t.Fatalf("iterations = %d", len(tr.Iterations))
	}
	it1, it2 := tr.Iterations[0], tr.Iterations[1]
	if len(it1.Executed) != 3 || len(it2.Executed) != 2 {
		t.Errorf("executed %d then %d stages, want 3 then 2", len(it1.Executed), len(it2.Executed))
	}
	if len(it1.Skipped) != 5 || len(it2.Skipped) != 6 {
		t.Errorf("skipped %d then %d stages, want 5 then 6", len(it1.Skipped), len(it2.Skipped))
	}
}

func TestCycleStageErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cy := &Cycle{
		Name:   "err",
		Stages: map[Stage]StageFunc{StageDesign: func(*Context) error { return boom }},
		Stop:   StoppingCriteria{MaxIterations: 1},
	}
	if _, err := cy.Run(nil); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestHierarchicalSubCycle(t *testing.T) {
	sub := &Cycle{
		Name: "prototype",
		Stages: map[Stage]StageFunc{
			StageImplementation: func(ctx *Context) error {
				ctx.AddSolution(Artifact{Name: "proto", Satisficing: true})
				return nil
			},
		},
		Stop: StoppingCriteria{SatisficeAfter: 1, MaxIterations: 3},
	}
	outer := &Cycle{
		Name: "overall",
		Stages: map[Stage]StageFunc{
			StageImplementation: func(*Context) error { return nil },
		},
		Sub:  map[Stage]*Cycle{StageImplementation: sub},
		Stop: StoppingCriteria{SatisficeAfter: 1, MaxIterations: 2},
	}
	tr, err := outer.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Solutions) == 0 {
		t.Error("sub-cycle solutions not propagated")
	}
	if tr.Stop != StopSatisficed {
		t.Errorf("stop = %v", tr.Stop)
	}
}

func TestStageAndStopStrings(t *testing.T) {
	if len(Stages()) != 8 {
		t.Fatal("stages != 8")
	}
	for _, s := range Stages() {
		if s.String() == "" {
			t.Errorf("stage %d has empty name", s)
		}
	}
	for _, r := range []StopReason{StopSatisficed, StopPortfolio, StopSystematic, StopExhausted, StopBudget} {
		if r.String() == "" {
			t.Errorf("reason %d empty", r)
		}
	}
}
