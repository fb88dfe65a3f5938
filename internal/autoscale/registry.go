package autoscale

import (
	"fmt"
	"sort"
	"strings"
)

// ByName resolves an autoscaler case-insensitively from the §6.7 catalog, so
// declarative layers (the scenario engine, CLIs) can name policies the same
// way they name scheduling policies and workload classes.
func ByName(name string) (Autoscaler, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, as := range DefaultAutoscalers() {
		if strings.ToLower(as.Name()) == key {
			return as, nil
		}
	}
	return nil, fmt.Errorf("autoscale: unknown autoscaler %q (known: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the canonical autoscaler names, sorted.
func Names() []string {
	out := make([]string, 0, len(DefaultAutoscalers()))
	for _, as := range DefaultAutoscalers() {
		out = append(out, as.Name())
	}
	sort.Strings(out)
	return out
}

// KindByName resolves an engine kind case-insensitively, accepting the
// canonical "in-vitro"/"in-silico" and the bare "vitro"/"silico" aliases.
func KindByName(name string) (EngineKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "in-vitro", "vitro":
		return InVitro, nil
	case "in-silico", "silico":
		return InSilico, nil
	default:
		return 0, fmt.Errorf("autoscale: unknown engine %q (known: in-vitro, in-silico)", name)
	}
}
