package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "hit_ratio", Better: "higher", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, []float64{1.01, 0.99, 1.00, 1.03, 0.97}, verdictUnchanged},
		{"within bound", lower, base, []float64{1.05, 1.06, 1.04, 1.07, 1.05}, verdictUnchanged},
		{"slower", lower, base, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, verdictWorse},
		{"faster", lower, base, []float64{0.80, 0.81, 0.79, 0.82, 0.78}, verdictBetter},
		{"higher is better", higher, base, []float64{0.80, 0.81, 0.79, 0.82, 0.78}, verdictWorse},
		{"noisy", lower, base, []float64{0.6, 1.5, 0.9, 1.3, 1.2}, verdictUnresolved},
		// A spread wider than the bound, but every candidate run is slower
		// than every base run: the direction is known.
		{"noisy but separated", lower, base, []float64{1.3, 1.9, 1.5, 2.2, 1.4}, verdictWorse},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for _, w := range walls {
			r := &result{Workload: "sweep", Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.set(d.Name, 1, d.Unit, 1)
			}
			r.set("wall_s", w, "s", 3)
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.ndjson", 1.0, 1.01, 0.99)
	b := write("b.ndjson", 1.5, 1.52, 1.49)
	var out strings.Builder
	if err := runCompare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	var wall, setup string
	for _, line := range strings.Split(out.String(), "\n") {
		switch f := strings.Fields(line); {
		case len(f) > 1 && f[1] == "wall_s":
			wall = f[len(f)-1]
		case len(f) > 1 && f[1] == "setup_s":
			setup = f[len(f)-1]
		}
	}
	if wall != verdictWorse || setup != verdictUnchanged {
		t.Errorf("verdicts wall_s=%q setup_s=%q, want worse and unchanged:\n%s", wall, setup, out.String())
	}
}
