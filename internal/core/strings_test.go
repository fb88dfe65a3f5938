package core

import (
	"strings"
	"testing"
)

// TestStringers sweeps every enum's String method, including the unknown
// default branches, so reports never print empty labels.
func TestStringers(t *testing.T) {
	for _, e := range []Element{ElementWhat, ElementHow, ElementOutcome, Element(99)} {
		if e.String() == "" {
			t.Errorf("Element(%d) empty string", e)
		}
	}
	for _, m := range []ReasoningMode{Deduction, Induction, NormalAbduction, DesignAbduction, Unreasoning, ReasoningMode(99)} {
		if m.String() == "" {
			t.Errorf("ReasoningMode(%d) empty string", m)
		}
	}
	for _, c := range []Category{CategoryHighest, CategorySystems, CategoryPeopleware, CategoryMethodology, Category(99)} {
		if c.String() == "" {
			t.Errorf("Category(%d) empty string", c)
		}
	}
	for _, k := range []ProblemKind{WellStructured, IllStructured, Wicked, ProblemKind(99)} {
		if k.String() == "" {
			t.Errorf("ProblemKind(%d) empty string", k)
		}
	}
	for _, l := range []CreativityLevel{TrivialDesign, NormalDesign, NovelDesign, FundamentalDesign, OutstandingDesign, CreativityLevel(99)} {
		if l.String() == "" {
			t.Errorf("CreativityLevel(%d) empty string", l)
		}
	}
	if !strings.Contains(Stage(99).String(), "99") {
		t.Error("unknown stage string")
	}
	if !strings.Contains(StopReason(99).String(), "99") {
		t.Error("unknown stop reason string")
	}
}

func TestContextSatisficingAccessor(t *testing.T) {
	ctx := &Context{}
	ctx.AddSolution(Artifact{Name: "good", Satisficing: true})
	ctx.AddSolution(Artifact{Name: "bad"})
	if got := ctx.Satisficing(); len(got) != 1 || got[0].Name != "good" {
		t.Errorf("Satisficing = %v", got)
	}
}
