// Package core formalizes the ATLARGE design framework — the paper's primary
// contribution: the Dorst reasoning model extended with unreasoning
// (Figure 5), the framework overview (Table 1), the eight core principles of
// MCS design (Table 2), the ten challenges (Table 3), the problem-finding
// catalog (§3.4), the Basic Design Cycle and hierarchical Overall Process
// with skippable stages and five stopping criteria (§3.5, Figure 8), and the
// Altshuller creativity levels used to assess designs (§5.1).
package core

import "fmt"

// Element is one of the three slots of the Dorst reasoning equation:
// What (concepts, objects, people) + How (relationships, laws, patterns)
// leads to Outcome (observed phenomenon).
type Element int

// The three reasoning elements.
const (
	ElementWhat Element = iota + 1
	ElementHow
	ElementOutcome
)

// String implements fmt.Stringer.
func (e Element) String() string {
	switch e {
	case ElementWhat:
		return "What"
	case ElementHow:
		return "How"
	case ElementOutcome:
		return "Outcome"
	default:
		return fmt.Sprintf("Element(%d)", int(e))
	}
}

// ReasoningMode is a row of the Figure 5 model.
type ReasoningMode int

// The five reasoning modes; DesignAbduction is design, Unreasoning is the
// paper's extension ("facts don't matter").
const (
	Deduction ReasoningMode = iota + 1
	Induction
	NormalAbduction
	DesignAbduction
	Unreasoning
)

// String implements fmt.Stringer.
func (m ReasoningMode) String() string {
	switch m {
	case Deduction:
		return "deduction"
	case Induction:
		return "induction"
	case NormalAbduction:
		return "abduction (problem solving)"
	case DesignAbduction:
		return "abduction (design)"
	case Unreasoning:
		return "unreasoning"
	default:
		return fmt.Sprintf("ReasoningMode(%d)", int(m))
	}
}

// Classify returns the reasoning mode that matches the given knowledge
// state. Design abduction is the mode of knowing only the desired outcome.
func Classify(knowWhat, knowHow, knowOutcome bool) ReasoningMode {
	switch {
	case knowWhat && knowHow && !knowOutcome:
		return Deduction
	case knowWhat && !knowHow && knowOutcome:
		return Induction
	case !knowWhat && knowHow && knowOutcome:
		return NormalAbduction
	case !knowWhat && !knowHow && knowOutcome:
		return DesignAbduction
	default:
		// Everything known (nothing to reason about) or nothing known.
		return Unreasoning
	}
}

// IsDesign reports whether the mode is the designerly one.
func (m ReasoningMode) IsDesign() bool { return m == DesignAbduction }
