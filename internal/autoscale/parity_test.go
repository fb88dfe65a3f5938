package autoscale

import (
	"math"
	"math/rand"
	"testing"

	"atlarge/internal/workload"
)

// relDiff is |a-b| / max(|a|,|b|, floor).
func relDiff(a, b, floor float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), floor)
	return math.Abs(a-b) / den
}

// parityTrace reproduces RunExperiment's workload shape: a
// workflow-heavy scientific trace.
func parityTrace(jobs int, seed int64) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	return workload.StandardGenerator(workload.ClassScientific).Generate(jobs, r)
}

// TestEventEngineParityVitro proves the event-driven in-vitro engine
// reproduces the historical step-driven loop's RunStats within tolerance:
// the event engine fires arrivals, boots, and task completions at exact
// instants where the step loop quantized them to Step boundaries, so job
// counts must match exactly and the continuous metrics must agree closely.
func TestEventEngineParityVitro(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		tr := parityTrace(25, seed)
		for _, as := range DefaultAutoscalers() {
			ev, err := Run(DefaultVitroConfig(), as, tr)
			if err != nil {
				t.Fatalf("seed %d %s event: %v", seed, as.Name(), err)
			}
			st, err := runVitroStep(DefaultVitroConfig(), as, tr)
			if err != nil {
				t.Fatalf("seed %d %s step: %v", seed, as.Name(), err)
			}
			compareRunStats(t, seed, as.Name(), ev, st, 0.15)
		}
	}
}

// TestEventEngineParitySilico does the same for the coarse fluid engine,
// whose event form schedules exact zero-crossings of each job's remaining
// work instead of draining it in 30-second slices.
func TestEventEngineParitySilico(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		tr := parityTrace(25, seed)
		for _, as := range DefaultAutoscalers() {
			ev, err := Run(DefaultSilicoConfig(), as, tr)
			if err != nil {
				t.Fatalf("seed %d %s event: %v", seed, as.Name(), err)
			}
			st, err := runSilicoStep(DefaultSilicoConfig(), as, tr)
			if err != nil {
				t.Fatalf("seed %d %s step: %v", seed, as.Name(), err)
			}
			compareRunStats(t, seed, as.Name(), ev, st, 0.15)
		}
	}
}

// compareRunStats checks exact job accounting and tolerance agreement of the
// headline per-run statistics and derived elasticity metrics.
func compareRunStats(t *testing.T, seed int64, name string, ev, st *RunStats, tol float64) {
	t.Helper()
	if ev.JobsDone != st.JobsDone {
		t.Errorf("seed %d %s: JobsDone %d (event) vs %d (step)", seed, name, ev.JobsDone, st.JobsDone)
	}
	if len(ev.JobResponse) != len(st.JobResponse) {
		t.Errorf("seed %d %s: responses %d vs %d", seed, name, len(ev.JobResponse), len(st.JobResponse))
	}
	em, sm := ComputeMetrics(ev), ComputeMetrics(st)
	checks := []struct {
		metric   string
		a, b     float64
		abs      bool // compare absolutely (for [0,1] fractions) vs relatively
		maxDelta float64
	}{
		// Continuous magnitudes: relative agreement.
		{"mean_response", em.MeanResponse, sm.MeanResponse, false, tol},
		{"mean_slowdown", em.MeanSlowdown, sm.MeanSlowdown, false, tol},
		{"core_seconds", em.CoreSeconds, sm.CoreSeconds, false, tol},
		{"horizon", ev.Horizon, st.Horizon, false, tol},
		// Fractions of time: absolute agreement (they live in [0,1]).
		{"timeshare_under", em.TimeshareUnder, sm.TimeshareUnder, true, tol},
		{"timeshare_over", em.TimeshareOver, sm.TimeshareOver, true, tol},
		{"accuracy_under", em.AccuracyUnder, sm.AccuracyUnder, true, tol},
		{"accuracy_over", em.AccuracyOver, sm.AccuracyOver, true, tol},
	}
	for _, c := range checks {
		var d float64
		if c.abs {
			d = math.Abs(c.a - c.b)
		} else {
			d = relDiff(c.a, c.b, 10)
		}
		if d > c.maxDelta {
			t.Errorf("seed %d %s: %s diverges: %v (event) vs %v (step), delta %.3f > %.3f",
				seed, name, c.metric, c.a, c.b, d, c.maxDelta)
		}
	}
}

// TestEventEngineDeterministic pins that the event engines are bitwise
// deterministic for a fixed seed (the scenario layer depends on it for
// byte-identical parallel sweeps).
func TestEventEngineDeterministic(t *testing.T) {
	tr := parityTrace(12, 3)
	for _, cfg := range []EngineConfig{DefaultVitroConfig(), DefaultSilicoConfig()} {
		cfg.Seed = 9
		a, err := Run(cfg, Adapt{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, Adapt{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if a.CoreSeconds != b.CoreSeconds || a.Horizon != b.Horizon || a.JobsDone != b.JobsDone {
			t.Errorf("%s: repeated runs differ", cfg.Kind)
		}
		am, bm := ComputeMetrics(a), ComputeMetrics(b)
		if am != bm {
			t.Errorf("%s: metrics differ across identical runs", cfg.Kind)
		}
	}
}
