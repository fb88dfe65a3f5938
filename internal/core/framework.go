package core

import "fmt"

// Category groups principles and challenges (Tables 2 and 3).
type Category int

// The four categories of the framework.
const (
	CategoryHighest Category = iota + 1
	CategorySystems
	CategoryPeopleware
	CategoryMethodology
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryHighest:
		return "highest principle"
	case CategorySystems:
		return "systems"
	case CategoryPeopleware:
		return "peopleware"
	case CategoryMethodology:
		return "methodology"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Principle is one of the eight core principles of MCS design (Table 2).
type Principle struct {
	Index    int // P1..P8
	Category Category
	Key      string
	Text     string
}

// Principles returns the Table 2 catalog.
func Principles() []Principle {
	return []Principle{
		{1, CategoryHighest, "design of design", "Design needs design."},
		{2, CategorySystems, "age of distributed ecosystems", "This is the Age of Distributed Ecosystems."},
		{3, CategorySystems, "NFRs, phenomena", "Dynamic non-functional properties and phenomena are first-class concerns."},
		{4, CategorySystems, "RM&S, self-awareness", "Resource Management and Scheduling, and its interplay with various sources of information to achieve local and global Self-Awareness, are key concerns."},
		{5, CategoryPeopleware, "education in design", "Education practices for MCS must ensure the competence and integrity needed for experimenting, creating, and operating ecosystems."},
		{6, CategoryPeopleware, "pragmatic, innovative, ethical", "Design communities can foster and curate pragmatic, innovative, and ethical design practices."},
		{7, CategoryMethodology, "design science, practice, culture", "We understand and create together a science, practice, and culture of MCS design."},
		{8, CategoryMethodology, "evolution and emergence", "We are aware of the history and evolution of MCS designs, key debates, and evolving patterns."},
	}
}

// Challenge is one of the ten challenges of MCS design (Table 3).
type Challenge struct {
	Index      int // C1..C10
	Category   Category
	Key        string
	Principles []int // supporting principles (Table 3 "Pr." column)
}

// Challenges returns the Table 3 catalog.
func Challenges() []Challenge {
	return []Challenge{
		{1, CategoryHighest, "Design of design", []int{1}},
		{2, CategoryHighest, "What is good design?", []int{1}},
		{3, CategoryHighest, "Design space exploration", []int{1}},
		{4, CategorySystems, "Design for ecosystems", []int{2}},
		{5, CategorySystems, "Catalog for MCS design", []int{3, 4}},
		{6, CategoryPeopleware, "Education, curriculum", []int{5}},
		{7, CategoryPeopleware, "Community engagement", []int{6}},
		{8, CategoryMethodology, "Documenting designs", []int{5, 6, 7}},
		{9, CategoryMethodology, "Design in practice", []int{7}},
		{10, CategoryMethodology, "Organizational similarity", []int{7}},
	}
}

// ValidateCatalog cross-checks that every challenge references existing
// principles and that categories partition the catalogs as in the paper.
func ValidateCatalog() error {
	byIndex := map[int]Principle{}
	for _, p := range Principles() {
		if _, dup := byIndex[p.Index]; dup {
			return fmt.Errorf("core: duplicate principle P%d", p.Index)
		}
		byIndex[p.Index] = p
	}
	if len(byIndex) != 8 {
		return fmt.Errorf("core: %d principles, want 8", len(byIndex))
	}
	seen := map[int]bool{}
	for _, c := range Challenges() {
		if seen[c.Index] {
			return fmt.Errorf("core: duplicate challenge C%d", c.Index)
		}
		seen[c.Index] = true
		if len(c.Principles) == 0 {
			return fmt.Errorf("core: challenge C%d cites no principle", c.Index)
		}
		for _, pi := range c.Principles {
			if _, ok := byIndex[pi]; !ok {
				return fmt.Errorf("core: challenge C%d cites missing principle P%d", c.Index, pi)
			}
		}
	}
	if len(seen) != 10 {
		return fmt.Errorf("core: %d challenges, want 10", len(seen))
	}
	return nil
}

// ProblemArchetype is one of the five problem kinds of §3.4.
type ProblemArchetype struct {
	Index int // P1..P5 (problem numbering, distinct from principles)
	Key   string
	Text  string
}

// ProblemArchetypes returns the §3.4 problem catalog.
func ProblemArchetypes() []ProblemArchetype {
	return []ProblemArchetype{
		{1, "ecosystem life-cycle", "problems in ecosystem life-cycle, for new and emerging processes, services, and ecosystems"},
		{2, "needs and phenomena", "problems of new and emerging needs of ecosystem-clients and -operators, and of newly discovered, emerging, and recurring phenomena"},
		{3, "legacy", "problems of leveraging and maintaining legacy components"},
		{4, "morphology", "problems of understanding how technology actually works in practice and in ecosystems (science as finder of phenomena)"},
		{5, "unexplored space", "problems of previously unexplored parts of the design space (abstraction for its own sake)"},
	}
}

// ProblemKind classifies a design problem's structure (§2.4).
type ProblemKind int

// Problem kinds: well-structured, ill-structured, wicked.
const (
	WellStructured ProblemKind = iota + 1
	IllStructured
	Wicked
)

// String implements fmt.Stringer.
func (k ProblemKind) String() string {
	switch k {
	case WellStructured:
		return "well-structured"
	case IllStructured:
		return "ill-structured"
	case Wicked:
		return "wicked"
	default:
		return fmt.Sprintf("ProblemKind(%d)", int(k))
	}
}

// ProblemTraits are the five Simon characteristics of well-structured
// problems (§2.4) plus the wickedness markers.
type ProblemTraits struct {
	AutomaticEvaluation  bool // a criterion to evaluate the result
	UnambiguousStates    bool // representation of goal/start/transitions
	CompleteKnowledge    bool // all domain knowledge representable
	AccurateNatureModel  bool // system-nature interaction capturable
	Tractable            bool
	CompetingStakeholder bool // wickedness: stakeholders with competing views
	NoFinalFormulation   bool // wickedness: no clear and final formulation
}

// ClassifyProblem maps traits to a problem kind: any wickedness marker makes
// the problem wicked; missing any Simon characteristic makes it
// ill-structured; otherwise it is well-structured.
func ClassifyProblem(t ProblemTraits) ProblemKind {
	if t.CompetingStakeholder || t.NoFinalFormulation {
		return Wicked
	}
	if !t.AutomaticEvaluation || !t.UnambiguousStates || !t.CompleteKnowledge ||
		!t.AccurateNatureModel || !t.Tractable {
		return IllStructured
	}
	return WellStructured
}

// CreativityLevel is an Altshuller level of design (§5.1, C2).
type CreativityLevel int

// The five Altshuller levels.
const (
	TrivialDesign CreativityLevel = iota + 1
	NormalDesign
	NovelDesign
	FundamentalDesign
	OutstandingDesign
)

// String implements fmt.Stringer.
func (l CreativityLevel) String() string {
	switch l {
	case TrivialDesign:
		return "trivial (minimal local adaptation)"
	case NormalDesign:
		return "normal (selection + reasoned adaptation)"
	case NovelDesign:
		return "novel (significant adaptation)"
	case FundamentalDesign:
		return "fundamental (new design or complete adaptation)"
	case OutstandingDesign:
		return "outstanding (new ecosystem, major advance)"
	default:
		return fmt.Sprintf("CreativityLevel(%d)", int(l))
	}
}

// AssessCreativity maps the observable properties of a design to an
// Altshuller level: how much of the design is newly created versus adapted,
// and whether it opened a new ecosystem.
func AssessCreativity(adaptedShare, newShare float64, opensEcosystem bool) (CreativityLevel, error) {
	if adaptedShare < 0 || newShare < 0 || adaptedShare+newShare > 1.000001 {
		return 0, fmt.Errorf("core: invalid shares adapted=%v new=%v", adaptedShare, newShare)
	}
	switch {
	case opensEcosystem:
		return OutstandingDesign, nil
	case newShare >= 0.5:
		return FundamentalDesign, nil
	case adaptedShare+newShare >= 0.5:
		return NovelDesign, nil
	case adaptedShare+newShare >= 0.1:
		return NormalDesign, nil
	default:
		return TrivialDesign, nil
	}
}

// FrameworkOverview is the Table 1 summary of the framework.
type FrameworkOverview struct {
	Stakeholders   []string
	CentralPremise string
	Focus          []string
	Concerns       []string
	Thinking       []string
	Processes      []string
}

// Overview returns the Table 1 content.
func Overview() FrameworkOverview {
	return FrameworkOverview{
		Stakeholders:   []string{"designers", "scientists", "engineers", "students", "society"},
		CentralPremise: "design is an intellectual activity different from science and engineering",
		Focus:          []string{"ecosystems", "systems within ecosystems", "structure, organization, dynamics"},
		Concerns:       []string{"functional properties", "non-functional properties", "phenomena", "evolution"},
		Thinking:       []string{"abductive thinking", "processes", "co-evolving problem-solution"},
		Processes:      []string{"design-space exploration", "problem-finding", "problem-solving", "reporting"},
	}
}
