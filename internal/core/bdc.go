package core

import "fmt"

// Stage is one of the eight elements of the Basic Design Cycle (Figure 8).
type Stage int

// The BDC stages, in traversal order.
const (
	StageFormulateRequirements Stage = iota + 1
	StageUnderstandAlternatives
	StageBootstrapCreative
	StageDesign // high-level and low-level design
	StageImplementation
	StageConceptualAnalysis
	StageExperimentalAnalysis
	StageReporting
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageFormulateRequirements:
		return "formulate requirements"
	case StageUnderstandAlternatives:
		return "understand the alternatives"
	case StageBootstrapCreative:
		return "bootstrap the creative process"
	case StageDesign:
		return "high-level and low-level design"
	case StageImplementation:
		return "implementation to analyze the design"
	case StageConceptualAnalysis:
		return "conceptual analysis"
	case StageExperimentalAnalysis:
		return "experimental analysis"
	case StageReporting:
		return "reporting, engineering, public dissemination"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Stages returns all stages in traversal order.
func Stages() []Stage {
	return []Stage{
		StageFormulateRequirements, StageUnderstandAlternatives,
		StageBootstrapCreative, StageDesign, StageImplementation,
		StageConceptualAnalysis, StageExperimentalAnalysis, StageReporting,
	}
}

// Artifact is a produced design (or analysis result) with its evaluation.
type Artifact struct {
	Name string
	// Score is the design's quality under the problem's criteria
	// (higher is better).
	Score float64
	// Satisficing marks a "good enough" design (Simon's satisficing).
	Satisficing bool
}

// Context is the shared state of one design process run.
type Context struct {
	Iteration int
	Solutions []Artifact
	Failures  int
	// State is scratch space for stage functions.
	State map[string]any
}

// AddSolution records a produced design; non-satisficing artifacts count as
// failures (the X boxes of Figure 7).
func (c *Context) AddSolution(a Artifact) {
	if a.Satisficing {
		c.Solutions = append(c.Solutions, a)
	} else {
		c.Failures++
	}
}

// Satisficing returns the satisficing solutions found so far.
func (c *Context) Satisficing() []Artifact { return c.Solutions }

// StageFunc executes one BDC stage.
type StageFunc func(ctx *Context) error

// StopReason explains why a cycle ended (§3.5 stopping criteria 1–5).
type StopReason int

// The five stopping criteria.
const (
	StopSatisficed StopReason = iota + 1 // one good-enough answer
	StopPortfolio                        // a few answers for a human reviewer
	StopSystematic                       // many answers for an expert/system
	StopExhausted                        // the whole design space covered
	StopBudget                           // out of time or other resources
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopSatisficed:
		return "satisficed (single answer)"
	case StopPortfolio:
		return "portfolio (a few answers)"
	case StopSystematic:
		return "systematic (many answers)"
	case StopExhausted:
		return "design space exhausted"
	case StopBudget:
		return "budget exhausted"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// StoppingCriteria configures when a cycle stops. The first satisfied
// criterion (in the paper's order) wins. MaxIterations is mandatory — the
// BDC does not guarantee success and must bound its budget.
type StoppingCriteria struct {
	// SatisficeAfter stops once at least this many satisficing solutions
	// exist (criterion 1 when 1, disabled when 0).
	SatisficeAfter int
	// PortfolioSize stops once a portfolio of this many solutions exists
	// (criterion 2, disabled when 0).
	PortfolioSize int
	// SystematicSize stops at a systematic set (criterion 3, disabled 0).
	SystematicSize int
	// SpaceExhausted reports design-space exhaustion (criterion 4).
	SpaceExhausted func(ctx *Context) bool
	// MaxIterations is the budget (criterion 5); must be positive.
	MaxIterations int
}

// evaluate returns the stop reason, or 0 to continue.
func (sc StoppingCriteria) evaluate(ctx *Context) StopReason {
	n := len(ctx.Solutions)
	switch {
	case sc.SatisficeAfter > 0 && n >= sc.SatisficeAfter && sc.PortfolioSize == 0 && sc.SystematicSize == 0:
		return StopSatisficed
	case sc.PortfolioSize > 0 && n >= sc.PortfolioSize:
		return StopPortfolio
	case sc.SystematicSize > 0 && n >= sc.SystematicSize:
		return StopSystematic
	case sc.SpaceExhausted != nil && sc.SpaceExhausted(ctx):
		return StopExhausted
	case ctx.Iteration >= sc.MaxIterations:
		return StopBudget
	default:
		return 0
	}
}

// IterationRecord traces one iteration of the cycle.
type IterationRecord struct {
	Iteration int
	Executed  []Stage
	Skipped   []Stage
	// NewSolutions and NewFailures produced this iteration.
	NewSolutions int
	NewFailures  int
}

// Trace is the full record of a cycle run — the provenance the paper's
// challenge C8 (documenting designs) asks for.
type Trace struct {
	Name       string
	Iterations []IterationRecord
	Stop       StopReason
	Solutions  []Artifact
	Failures   int
}

// Cycle is an executable Basic Design Cycle. Stages without a StageFunc are
// skipped — the Overall Process explicitly allows skipping any stage in any
// iteration (§3.5); SkipPolicy can additionally skip per iteration.
type Cycle struct {
	Name   string
	Stages map[Stage]StageFunc
	// Sub expands a stage into a nested BDC (the hierarchical OP): the
	// sub-cycle runs each time the stage executes, sharing the Context.
	Sub map[Stage]*Cycle
	// SkipPolicy, when set, skips stage s at iteration i when returning
	// true.
	SkipPolicy func(iteration int, s Stage) bool
	Stop       StoppingCriteria
}

// Run executes the cycle to a stopping criterion.
func (cy *Cycle) Run(ctx *Context) (*Trace, error) {
	if cy.Stop.MaxIterations <= 0 {
		return nil, fmt.Errorf("core: cycle %q needs MaxIterations (criterion 5)", cy.Name)
	}
	if ctx == nil {
		ctx = &Context{State: make(map[string]any)}
	}
	if ctx.State == nil {
		ctx.State = make(map[string]any)
	}
	tr := &Trace{Name: cy.Name}
	for {
		ctx.Iteration++
		rec := IterationRecord{Iteration: ctx.Iteration}
		preSolutions, preFailures := len(ctx.Solutions), ctx.Failures
		for _, s := range Stages() {
			fn := cy.Stages[s]
			skip := fn == nil || (cy.SkipPolicy != nil && cy.SkipPolicy(ctx.Iteration, s))
			if skip {
				rec.Skipped = append(rec.Skipped, s)
				continue
			}
			if err := fn(ctx); err != nil {
				return nil, fmt.Errorf("core: cycle %q stage %q: %w", cy.Name, s, err)
			}
			if sub := cy.Sub[s]; sub != nil {
				subTrace, err := sub.Run(&Context{State: ctx.State, Iteration: 0})
				if err != nil {
					return nil, fmt.Errorf("core: cycle %q sub-cycle at %q: %w", cy.Name, s, err)
				}
				for _, a := range subTrace.Solutions {
					ctx.AddSolution(a)
				}
				ctx.Failures += subTrace.Failures
			}
			rec.Executed = append(rec.Executed, s)
		}
		rec.NewSolutions = len(ctx.Solutions) - preSolutions
		rec.NewFailures = ctx.Failures - preFailures
		tr.Iterations = append(tr.Iterations, rec)
		if reason := cy.Stop.evaluate(ctx); reason != 0 {
			tr.Stop = reason
			break
		}
	}
	tr.Solutions = append([]Artifact(nil), ctx.Solutions...)
	tr.Failures = ctx.Failures
	return tr, nil
}
