package sched

import (
	"strings"
	"testing"
)

func TestPolicyByNameCanonical(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("PolicyByName(%q) = nil policy", name)
		}
	}
}

func TestPolicyByNameSpellings(t *testing.T) {
	cases := []struct {
		in   string
		want string // Policy.Name()
	}{
		{"fcfs", "FCFS"},
		{"FCFS", "FCFS"},
		{"sjf", "SJF"},
		{"easy-bf", "EASY-BF"},
		{"EASYBF", "EASY-BF"},
		{"greedy-bf", "GreedyBF"},
		{"GreedyBF", "GreedyBF"},
		{"FairShare", "FairShare"},
		{"random", "Random"},
	}
	for _, c := range cases {
		p, err := PolicyByName(c.in)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", c.in, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	_, err := PolicyByName("heft")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "known:") || !strings.Contains(err.Error(), "sjf") {
		t.Errorf("error does not list the catalog: %v", err)
	}
}

// TestPolicyByNameFreshInstances pins that repeated lookups return
// independent policies (required for concurrent simulations).
func TestPolicyByNameFreshInstances(t *testing.T) {
	a, _ := PolicyByName("fcfs")
	b, _ := PolicyByName("fcfs")
	if &a == &b {
		t.Fatal("PolicyByName returned the same instance twice")
	}
}

// TestPolicyNamesCoverPortfolio pins that every DefaultPortfolio member is
// reachable by name, so name-driven specs can reference the full set.
func TestPolicyNamesCoverPortfolio(t *testing.T) {
	for _, p := range DefaultPortfolio() {
		got, err := PolicyByName(p.Name())
		if err != nil {
			t.Errorf("portfolio policy %q not resolvable by name: %v", p.Name(), err)
			continue
		}
		if got.Name() != p.Name() {
			t.Errorf("lookup of %q returned %q", p.Name(), got.Name())
		}
	}
}
