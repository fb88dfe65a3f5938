package refarch

import (
	"strings"
	"testing"
)

func TestRegistryAddValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(Component{}); err == nil {
		t.Error("unnamed component accepted")
	}
	if err := r.Add(Component{Name: "x", Layer: Layer(99)}); err == nil {
		t.Error("invalid layer accepted")
	}
	if err := r.Add(Component{Name: "x", Layer: LayerBackend}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Component{Name: "x", Layer: LayerBackend}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, ok := r.Get("x"); !ok {
		t.Error("component not retrievable")
	}
	if _, ok := r.Get("ghost"); ok {
		t.Error("phantom component found")
	}
}

func TestStandardRegistry(t *testing.T) {
	r, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() < 15 {
		t.Errorf("registry has %d components, want >= 15", r.Len())
	}
	// Every layer of the new architecture is populated.
	for _, l := range Layers() {
		if len(r.ByLayer(l)) == 0 {
			t.Errorf("layer %s empty", l)
		}
	}
	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestLayerStrings(t *testing.T) {
	if LayerDevOps.String() != "DevOps" || LayerOperations.String() != "Operations Service" {
		t.Error("layer names wrong")
	}
	if OldProgrammingModel.String() != "Programming Model" {
		t.Error("old layer names wrong")
	}
	if !strings.Contains(Layer(42).String(), "42") {
		t.Error("unknown layer string")
	}
	if !strings.Contains(OldLayer(42).String(), "42") {
		t.Error("unknown old layer string")
	}
}

func TestCoverageMotivatesRevision(t *testing.T) {
	r, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeCoverage(r)
	if rep.NewPlaceable != rep.Total {
		t.Errorf("new architecture places %d/%d", rep.NewPlaceable, rep.Total)
	}
	if rep.OldPlaceable >= rep.Total {
		t.Error("old architecture places everything; revision unmotivated")
	}
	if len(rep.Unplaceable) == 0 {
		t.Fatal("no unplaceable components listed")
	}
	// The paper's named examples must be among the unplaceables.
	unplace := map[string]bool{}
	for _, n := range rep.Unplaceable {
		unplace[n] = true
	}
	for _, want := range []string{"MemEFS", "Pocket", "Crail", "FlashNet", "Graphalytics", "Granula"} {
		if !unplace[want] {
			t.Errorf("%s should be unplaceable in the old architecture", want)
		}
	}
}

func TestIndustryMappingsValidate(t *testing.T) {
	r, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	maps := IndustryMappings()
	if len(maps) < 3 {
		t.Fatalf("mappings = %d", len(maps))
	}
	for _, m := range maps {
		if err := ValidateMapping(r, m); err != nil {
			t.Errorf("mapping %q invalid: %v", m.Ecosystem, err)
		}
	}
}

func TestValidateMappingErrors(t *testing.T) {
	r, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMapping(r, EcosystemMapping{Ecosystem: "empty"}); err == nil {
		t.Error("empty mapping accepted")
	}
	if err := ValidateMapping(r, EcosystemMapping{Ecosystem: "ghost", Components: []string{"NoSuch"}}); err == nil {
		t.Error("unknown component accepted")
	}
	single := EcosystemMapping{Ecosystem: "flat", Components: []string{"Pig", "Hive"}}
	if err := ValidateMapping(r, single); err == nil {
		t.Error("single-layer mapping accepted")
	}
}

func TestMapReduceSampleSpansStack(t *testing.T) {
	r, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	m := IndustryMappings()[0]
	layers := map[Layer]bool{}
	for _, name := range m.Components {
		if c, ok := r.Get(name); ok {
			layers[c.Layer] = true
		}
	}
	// The Figure 9 sample touches front-end, back-end, resources, and
	// operations.
	for _, l := range []Layer{LayerFrontend, LayerBackend, LayerResources, LayerOperations} {
		if !layers[l] {
			t.Errorf("MapReduce sample missing layer %s", l)
		}
	}
}
