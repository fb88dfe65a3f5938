package atlarge

import "context"

// Experiments lists the reproducible artifact IDs in canonical order.
func Experiments() []string {
	return DefaultRegistry().IDs()
}

// RunExperiment reproduces one paper artifact and returns its report.
func RunExperiment(id string, seed int64) (*Report, error) {
	e, err := DefaultRegistry().Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(context.Background(), seed)
}
