package autoscale

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// TestPerJobTaskIDs pins that the engines keep task state by position, not
// by task ID. Trace.Validate requires task IDs to be unique only within a
// job, so an imported trace may number each job's tasks 1..k; it must run
// exactly as the same trace numbered across the whole trace.
func TestPerJobTaskIDs(t *testing.T) {
	global := parityTrace(40, 42)
	local := global.Clone()
	for _, j := range local.Jobs {
		ids := make(map[int]int, len(j.Tasks))
		for i := range j.Tasks {
			ids[j.Tasks[i].ID] = i + 1
		}
		for i := range j.Tasks {
			tk := &j.Tasks[i]
			tk.ID = i + 1
			for d := range tk.Deps {
				tk.Deps[d] = ids[tk.Deps[d]]
			}
		}
	}
	if err := local.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, as := range DefaultAutoscalers() {
		for _, cfg := range []EngineConfig{DefaultVitroConfig(), DefaultSilicoConfig()} {
			want, err := Run(cfg, as, global)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(cfg, as, local)
			if err != nil {
				t.Fatal(err)
			}
			if want.JobsDone != len(global.Jobs) {
				t.Errorf("%s/%s: %d of %d jobs done", as.Name(), cfg.Kind, want.JobsDone, len(global.Jobs))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: per-job task IDs give %d jobs done and %+v, global IDs %d and %+v",
					as.Name(), cfg.Kind, got.JobsDone, ComputeMetrics(got), want.JobsDone, ComputeMetrics(want))
			}
		}
	}
}

// TestVitroSamplingAllocatesNothingPerStep runs one single-task job for 10^3
// and for 10^6 virtual seconds, sampled once a second, and requires the two
// runs to allocate within a fixed slack of each other. The autoscaler
// evaluates once per 10^6 s here, so its demand history, which grows by one
// point per evaluation, has the same length in both runs.
func TestVitroSamplingAllocatesNothingPerStep(t *testing.T) {
	cfg := DefaultVitroConfig()
	cfg.EvalInterval = 1e6
	alloc := func(seconds float64) uint64 {
		tr := &workload.Trace{Jobs: []*workload.Job{{
			ID:    1,
			Tasks: []workload.Task{{ID: 1, CPUs: 1, Runtime: sim.Duration(seconds)}},
		}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Run(cfg, React{}, tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.JobsDone != 1 || st.Series.Len() < int(seconds) {
			t.Fatalf("%g s task: %d jobs done, %d samples", seconds, st.JobsDone, st.Series.Len())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(1e3) // warm up
	short, long := alloc(1e3), alloc(1e6)
	t.Logf("10^3 s: %d B, 10^6 s: %d B", short, long)
	const slack = 1024
	if long > short+slack {
		t.Errorf("a 10^6 s run allocated %d B, a 10^3 s one %d B: more than %d B apart", long, short, slack)
	}
}

// TestRunRejectsBadTimes checks that both engines refuse a trace no run
// could finish or even schedule: an infinite or NaN task runtime, or a
// negative, NaN or infinite submit time.
func TestRunRejectsBadTimes(t *testing.T) {
	for _, c := range []struct {
		name            string
		submit, runtime float64
	}{
		{"infinite runtime", 0, math.Inf(1)},
		{"NaN runtime", 0, math.NaN()},
		{"negative runtime", 0, -1},
		{"negative submit", -5, 10},
		{"NaN submit", math.NaN(), 10},
		{"infinite submit", math.Inf(1), 10},
	} {
		tr := &workload.Trace{Jobs: []*workload.Job{{
			ID:     1,
			Submit: sim.Time(c.submit),
			Tasks:  []workload.Task{{ID: 1, CPUs: 1, Runtime: sim.Duration(c.runtime)}},
		}}}
		for _, cfg := range []EngineConfig{DefaultVitroConfig(), DefaultSilicoConfig()} {
			if _, err := Run(cfg, React{}, tr); err == nil {
				t.Errorf("%s/%s: accepted", c.name, cfg.Kind)
			}
		}
	}
}
