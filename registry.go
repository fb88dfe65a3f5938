package atlarge

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// RunFunc executes one experiment for a seed and returns its report. A
// long-running experiment may honour ctx (Runner.RunContext cancellation and
// deadlines) mid-simulation; one that ignores it runs to completion once
// started, and cancellation then only skips tasks the pool has not claimed.
type RunFunc func(ctx context.Context, seed int64) (*Report, error)

// Experiment is a first-class descriptor of one reproducible paper artifact.
// Artifacts register themselves (see the exp_*.go files) instead of being
// wired through a central switch, so new experiments plug in without touching
// the harness.
type Experiment struct {
	// ID is the stable handle used by the CLI and the API ("fig1", "tab9").
	ID string
	// Title is the human-readable artifact description.
	Title string
	// Tags classify the experiment ("figure", "table", "simulation", ...).
	Tags []string
	// Order positions the experiment in the canonical catalog listing;
	// ties resolve by ID.
	Order int
	// Run produces the report for one seed.
	Run RunFunc
}

// Registry is a concurrency-safe catalog of experiments.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]Experiment)}
}

// Register adds an experiment; it rejects empty IDs, nil run functions, and
// duplicate IDs.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" {
		return fmt.Errorf("atlarge: register: empty experiment ID")
	}
	if e.Run == nil {
		return fmt.Errorf("atlarge: register %q: nil run function", e.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("atlarge: register %q: duplicate experiment ID", e.ID)
	}
	r.byID[e.ID] = e
	return nil
}

// MustRegister is Register, panicking on error; for init-time registration.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Get returns the experiment for id. The error for an unknown ID is the
// canonical one, listing the known catalog.
func (r *Registry) Get(id string) (Experiment, error) {
	r.mu.RLock()
	e, ok := r.byID[id]
	r.mu.RUnlock()
	if !ok {
		return Experiment{}, fmt.Errorf("atlarge: unknown experiment %q (known: %s)", id, strings.Join(r.IDs(), ", "))
	}
	return e, nil
}

// IDs returns every registered ID in canonical catalog order.
func (r *Registry) IDs() []string {
	exps := r.Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// Experiments returns every registered experiment in canonical catalog order.
func (r *Registry) Experiments() []Experiment {
	r.mu.RLock()
	out := make([]Experiment, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b Experiment) int {
		if c := cmp.Compare(a.Order, b.Order); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// Len returns the number of registered experiments.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// defaultRegistry holds the built-in artifact catalog; the exp_*.go files
// fill it from their init functions.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the registry holding every built-in paper artifact.
func DefaultRegistry() *Registry { return defaultRegistry }
