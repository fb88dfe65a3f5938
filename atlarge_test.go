package atlarge

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

func TestPublicCatalogs(t *testing.T) {
	if len(Principles()) != 8 {
		t.Error("principles != 8")
	}
	if len(Challenges()) != 10 {
		t.Error("challenges != 10")
	}
	if len(ProblemArchetypes()) != 5 {
		t.Error("archetypes != 5")
	}
	if Overview().CentralPremise == "" {
		t.Error("empty central premise")
	}
}

func TestPublicClassify(t *testing.T) {
	if got := Classify(false, false, true); got != DesignAbduction {
		t.Errorf("Classify outcome-only = %v, want design abduction", got)
	}
}

func TestPublicAssessCreativity(t *testing.T) {
	lvl, err := AssessCreativity(0.2, 0.6, false)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.String() == "" {
		t.Error("empty level string")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunQuickExperiments(t *testing.T) {
	// The fast artifacts run in unit tests; the heavy sweeps run in the
	// benchmarks.
	for _, id := range []string{"fig7", "fig9", "bdc"} {
		t.Run(id, func(t *testing.T) {
			rep, err := RunExperiment(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id || rep.Title == "" || len(rep.Metrics) == 0 {
				t.Errorf("report = %+v", rep)
			}
		})
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // experiments are independent; overlap the heavy ones
			rep, err := RunExperiment(id, 42)
			if err != nil {
				t.Fatal(err)
			}
			// Acceptance: every registered experiment emits typed metrics.
			if len(rep.Metrics) == 0 {
				t.Error("no typed metrics")
			}
			// The derived text rendering must carry content (blank lines are
			// legitimate section separators).
			if strings.TrimSpace(strings.Join(rep.Lines(), "\n")) == "" {
				t.Error("empty text rendering")
			}
		})
	}
}

func TestBDCCycleViaPublicAPI(t *testing.T) {
	n := 0
	cy := &Cycle{
		Name: "public",
		Stages: map[Stage]StageFunc{
			StageDesign: func(ctx *Context) error {
				n++
				ctx.AddSolution(Artifact{Name: "x", Satisficing: n >= 2})
				return nil
			},
		},
		Stop: StoppingCriteria{SatisficeAfter: 1, MaxIterations: 10},
	}
	tr, err := cy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Solutions) != 1 {
		t.Errorf("solutions = %d", len(tr.Solutions))
	}
}

// TestExperimentAllocBudget bounds the bytes one run of each counting
// experiment allocates: fig1 and fig2 replay the corpus's draws into
// counts and tab5's vicissitude windows count swarms as they are drawn, so
// none of them holds a corpus or an ecosystem it only counts. tab9's window
// simulations borrow simulators from one free list, so a run reuses the
// kernel and buffers of an earlier one instead of reallocating them (about
// 80 MiB a run without any reuse, 16 MiB with simulators but not kernels
// reused); its case is skipped under -short, where it would quadruple the
// package's time, and it runs on two workers. The autoscale engines keep a
// run's supply/demand series as running sums and share one prepared trace,
// kernel and in-vitro state across the experiment's 14 runs (about 4.3 MiB
// a run with the series stored and all state rebuilt per run, 0.38 MiB
// without), and their Hist and Reg autoscalers work in one scratch buffer
// per run instead of allocating at every evaluation (0.29 MiB). The test
// does not run in parallel, since TotalAlloc counts every goroutine's
// allocations.
func TestExperimentAllocBudget(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		id     string
		budget uint64
	}{
		{"fig1", 1 * mib},
		{"fig2", 1 * mib},
		{"tab5", 3 * mib},
		{"autoscale", mib * 35 / 100},
		{"tab9", 10 * mib},
	} {
		if c.id == "tab9" {
			if testing.Short() {
				continue
			}
			// Each exec worker warms one simulator up, about 1 MiB, so the
			// budget holds for two workers, whatever the host's CPU count.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		e, err := DefaultRegistry().Get(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), 42); err != nil { // warm up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = e.Run(context.Background(), 42)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Errorf("%s allocated %.2f MiB, budget %.2f MiB", c.id, float64(got)/mib, float64(c.budget)/mib)
		}
	}
}
