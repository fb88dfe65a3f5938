package atlarge

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// canonicalIDs is the catalog order the registry must preserve.
var canonicalIDs = []string{
	"fig1", "fig2", "fig3", "fig7", "fig9",
	"tab5", "tab6", "tab7", "tab8", "tab9",
	"autoscale", "bdc",
}

func TestDefaultRegistryCatalog(t *testing.T) {
	ids := Experiments()
	if len(ids) != len(canonicalIDs) {
		t.Fatalf("catalog = %v, want %v", ids, canonicalIDs)
	}
	for i, id := range canonicalIDs {
		if ids[i] != id {
			t.Errorf("catalog[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if got := DefaultRegistry().Len(); got != len(canonicalIDs) {
		t.Errorf("Len = %d, want %d", got, len(canonicalIDs))
	}
}

func TestRegistryGetKnown(t *testing.T) {
	for _, id := range canonicalIDs {
		e, err := DefaultRegistry().Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if e.ID != id || e.Title == "" || e.Run == nil || len(e.Tags) == 0 {
			t.Errorf("incomplete descriptor for %s: %+v", id, e)
		}
	}
}

func TestRegistryUnknownError(t *testing.T) {
	_, err := DefaultRegistry().Get("nope")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	want := "atlarge: unknown experiment \"nope\" (known: " + strings.Join(canonicalIDs, ", ") + ")"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	// RunExperiment and the Runner must surface the identical error.
	if _, rerr := RunExperiment("nope", 1); rerr == nil || rerr.Error() != want {
		t.Errorf("RunExperiment error = %v, want %q", rerr, want)
	}
	if _, rerr := (&Runner{}).Run([]string{"nope"}, 1); rerr == nil || rerr.Error() != want {
		t.Errorf("Runner error = %v, want %q", rerr, want)
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	run := func(context.Context, int64) (*Report, error) { return &Report{ID: "x"}, nil }
	if err := r.Register(Experiment{Title: "no id", Run: run}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := r.Register(Experiment{ID: "x"}); err == nil {
		t.Error("nil run func accepted")
	}
	if err := r.Register(Experiment{ID: "x", Run: run}); err != nil {
		t.Fatalf("valid register: %v", err)
	}
	if err := r.Register(Experiment{ID: "x", Run: run}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryOrderAndTags(t *testing.T) {
	r := NewRegistry()
	run := func(context.Context, int64) (*Report, error) { return &Report{}, nil }
	r.MustRegister(Experiment{ID: "b", Order: 2, Tags: []string{"even"}, Run: run})
	r.MustRegister(Experiment{ID: "c", Order: 1, Tags: []string{"odd"}, Run: run})
	r.MustRegister(Experiment{ID: "a", Order: 2, Tags: []string{"even"}, Run: run})
	if got := strings.Join(r.IDs(), ","); got != "c,a,b" {
		t.Errorf("IDs = %s, want c,a,b (order, then ID)", got)
	}
	// The registry keeps each experiment's Tags; `atlarge list -tag` filters
	// by them (cmd/atlarge TestRunList).
	want := map[string]string{"a": "even", "b": "even", "c": "odd"}
	for _, e := range r.Experiments() {
		if !slices.Equal(e.Tags, []string{want[e.ID]}) {
			t.Errorf("%s: Tags = %v, want [%s]", e.ID, e.Tags, want[e.ID])
		}
	}
}
