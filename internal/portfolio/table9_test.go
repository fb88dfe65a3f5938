package portfolio

import (
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

// TestRunTable9WorkersDeterministic pins the row-pool guarantee: any worker
// count yields identical rows for the same config (per-row derived seeds,
// order-indexed collection).
func TestRunTable9WorkersDeterministic(t *testing.T) {
	cfg := Table9Config{JobsPerRow: 21, WindowSize: 7, LoadFactor: 10, Seed: 3}
	cfg.Workers = 1
	seq, err := RunTable9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunTable9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs:\n  seq %+v\n  par %+v", i, seq[i], par[i])
		}
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
