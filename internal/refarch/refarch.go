// Package refarch implements the paper's Figure 9: the evolving reference
// architecture for datacenter ecosystems. It models both the 2011–2016
// big-data reference architecture (four conceptual layers) and the
// 2016-onward full datacenter architecture (five core layers plus an
// orthogonal DevOps layer with sublayers), a component registry, mappings of
// well-known ecosystems onto the layers, and the coverage analysis that
// motivated the revision: the old architecture cannot place entire classes
// of components that the new one can.
package refarch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Layer is a layer of the new (2016+) reference architecture.
type Layer int

// The five core layers plus the orthogonal DevOps layer, numbered as in the
// paper's description ((1) Infrastructure ... (5) Front-end, (6) DevOps).
const (
	LayerInfrastructure Layer = iota + 1
	LayerOperations
	LayerResources
	LayerBackend
	LayerFrontend
	LayerDevOps
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerInfrastructure:
		return "Infrastructure"
	case LayerOperations:
		return "Operations Service"
	case LayerResources:
		return "Resources"
	case LayerBackend:
		return "Back-end"
	case LayerFrontend:
		return "Front-end"
	case LayerDevOps:
		return "DevOps"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Layers lists the new architecture's layers in order.
func Layers() []Layer {
	return []Layer{
		LayerInfrastructure, LayerOperations, LayerResources,
		LayerBackend, LayerFrontend, LayerDevOps,
	}
}

// OldLayer is a layer of the original big-data reference architecture
// (Figure 9 top).
type OldLayer int

// The four conceptual layers of the 2011–2016 architecture.
const (
	OldStorageEngine OldLayer = iota + 1
	OldExecutionEngine
	OldProgrammingModel
	OldHighLevelLanguage
)

// String implements fmt.Stringer.
func (l OldLayer) String() string {
	switch l {
	case OldStorageEngine:
		return "Storage Engine"
	case OldExecutionEngine:
		return "Execution Engine"
	case OldProgrammingModel:
		return "Programming Model"
	case OldHighLevelLanguage:
		return "High-Level Language"
	default:
		return fmt.Sprintf("OldLayer(%d)", int(l))
	}
}

// Component is a named system placed in the architecture.
type Component struct {
	Name string
	// Layer and Sublayer position the component in the new architecture.
	Layer    Layer
	Sublayer string
	// OldLayer positions it in the original architecture; 0 when the old
	// architecture cannot express it (the limitation that forced the
	// revision).
	OldLayer OldLayer
	// CrossesLayers marks systems spanning memory/network/storage
	// boundaries (e.g., in-memory distributed file systems).
	CrossesLayers bool
}

// Registry holds the component catalog.
type Registry struct {
	byName map[string]Component
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Component)}
}

// Add registers a component; duplicate names are an error.
func (r *Registry) Add(c Component) error {
	if c.Name == "" {
		return fmt.Errorf("refarch: component without name")
	}
	if c.Layer < LayerInfrastructure || c.Layer > LayerDevOps {
		return fmt.Errorf("refarch: component %q layer %d invalid", c.Name, c.Layer)
	}
	if _, dup := r.byName[c.Name]; dup {
		return fmt.Errorf("refarch: component %q already registered", c.Name)
	}
	r.byName[c.Name] = c
	return nil
}

// Get looks a component up.
func (r *Registry) Get(name string) (Component, bool) {
	c, ok := r.byName[name]
	return c, ok
}

// Len returns the number of registered components.
func (r *Registry) Len() int { return len(r.byName) }

// Names returns sorted component names.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByLayer returns the components of one layer, sorted by name.
func (r *Registry) ByLayer(l Layer) []Component {
	var out []Component
	for _, c := range r.byName {
		if c.Layer == l {
			out = append(out, c)
		}
	}
	slices.SortStableFunc(out, func(a, b Component) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// StandardRegistry builds the catalog of Figure 9: the MapReduce sample
// mapping plus the systems the paper lists as unplaceable in the old
// architecture (in-memory file systems, network/storage engines, DevOps
// tools, application-level portals).
func StandardRegistry() (*Registry, error) {
	r := NewRegistry()
	components := []Component{
		// The MapReduce big-data sample (placeable in both architectures).
		{Name: "Pig", Layer: LayerFrontend, Sublayer: "high-level language", OldLayer: OldHighLevelLanguage},
		{Name: "Hive", Layer: LayerFrontend, Sublayer: "high-level language", OldLayer: OldHighLevelLanguage},
		{Name: "MapReduce Model", Layer: LayerFrontend, Sublayer: "programming model", OldLayer: OldProgrammingModel},
		{Name: "Hadoop", Layer: LayerBackend, Sublayer: "execution engine", OldLayer: OldExecutionEngine},
		{Name: "HDFS", Layer: LayerBackend, Sublayer: "storage engine", OldLayer: OldStorageEngine},
		{Name: "YARN", Layer: LayerResources, Sublayer: "resource manager", OldLayer: OldExecutionEngine},
		{Name: "Mesos", Layer: LayerResources, Sublayer: "resource manager"},
		{Name: "ZooKeeper", Layer: LayerOperations, Sublayer: "coordination"},
		// Classes the old architecture could not express.
		{Name: "MemEFS", Layer: LayerBackend, Sublayer: "in-memory file system", CrossesLayers: true},
		{Name: "Pocket", Layer: LayerBackend, Sublayer: "ephemeral storage", CrossesLayers: true},
		{Name: "Crail", Layer: LayerOperations, Sublayer: "high-performance I/O", CrossesLayers: true},
		{Name: "FlashNet", Layer: LayerInfrastructure, Sublayer: "flash/network co-design", CrossesLayers: true},
		{Name: "Graphalytics", Layer: LayerDevOps, Sublayer: "benchmarking"},
		{Name: "Granula", Layer: LayerDevOps, Sublayer: "performance analysis"},
		{Name: "Monitoring Stack", Layer: LayerDevOps, Sublayer: "monitoring"},
		{Name: "Logging Stack", Layer: LayerDevOps, Sublayer: "logging"},
		{Name: "SaaS Portal", Layer: LayerFrontend, Sublayer: "portal"},
		{Name: "Kubernetes", Layer: LayerResources, Sublayer: "orchestration"},
		{Name: "VM Hypervisor", Layer: LayerInfrastructure, Sublayer: "virtualization"},
		{Name: "Object Store", Layer: LayerInfrastructure, Sublayer: "storage", OldLayer: OldStorageEngine},
	}
	for _, c := range components {
		if err := r.Add(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// CoverageReport compares old-vs-new architecture coverage over a registry.
type CoverageReport struct {
	Total        int
	OldPlaceable int
	NewPlaceable int
	// Unplaceable lists components the old architecture cannot express.
	Unplaceable []string
}

// AnalyzeCoverage computes the Figure 9 motivation: every component fits the
// new architecture; a substantial fraction does not fit the old one.
func AnalyzeCoverage(r *Registry) CoverageReport {
	rep := CoverageReport{Total: r.Len(), NewPlaceable: r.Len()}
	for _, name := range r.Names() {
		c, _ := r.Get(name)
		if c.OldLayer != 0 && !c.CrossesLayers {
			rep.OldPlaceable++
		} else {
			rep.Unplaceable = append(rep.Unplaceable, c.Name)
		}
	}
	return rep
}

// EcosystemMapping maps a named industry ecosystem onto registry components.
type EcosystemMapping struct {
	Ecosystem  string
	Components []string
}

// IndustryMappings returns the sample mappings the team validated the new
// architecture against.
func IndustryMappings() []EcosystemMapping {
	return []EcosystemMapping{
		{Ecosystem: "MapReduce big-data stack", Components: []string{
			"Pig", "Hive", "MapReduce Model", "Hadoop", "HDFS", "YARN", "Mesos", "ZooKeeper",
		}},
		{Ecosystem: "serverless analytics", Components: []string{
			"Pocket", "Crail", "Kubernetes", "Monitoring Stack",
		}},
		{Ecosystem: "graph-processing DevOps", Components: []string{
			"Graphalytics", "Granula", "Hadoop", "HDFS",
		}},
		{Ecosystem: "web portal on IaaS", Components: []string{
			"SaaS Portal", "Kubernetes", "VM Hypervisor", "Object Store", "Logging Stack",
		}},
	}
}

// ValidateMapping checks that every referenced component exists and that the
// mapping touches at least two distinct layers (an ecosystem is a composite
// by definition).
func ValidateMapping(r *Registry, m EcosystemMapping) error {
	if len(m.Components) == 0 {
		return fmt.Errorf("refarch: mapping %q has no components", m.Ecosystem)
	}
	layers := map[Layer]bool{}
	for _, name := range m.Components {
		c, ok := r.Get(name)
		if !ok {
			return fmt.Errorf("refarch: mapping %q references unknown component %q", m.Ecosystem, name)
		}
		layers[c.Layer] = true
	}
	if len(layers) < 2 {
		return fmt.Errorf("refarch: mapping %q spans only %d layer(s)", m.Ecosystem, len(layers))
	}
	return nil
}
