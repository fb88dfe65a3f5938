package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestPercentileMedianIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := PercentileSorted(xs, 75) - PercentileSorted(xs, 25); got != 2 {
		t.Errorf("interquartile range = %v, want 2", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(empty) should be NaN")
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("Percentile(single) = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(raw, pa) <= Percentile(raw, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	fn, err := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if fn.Min != 1 || fn.Max != 9 || fn.Median != 5 || fn.Q1 != 3 || fn.Q3 != 7 || fn.Mean != 5 || fn.N != 9 {
		t.Errorf("Summarize = %+v", fn)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestViolin(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()*0.5 + 2.5
	}
	v, err := NewViolin("design", xs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Category != "design" || v.N != 500 {
		t.Errorf("violin meta = %q/%d", v.Category, v.N)
	}
	if !(v.Q1 <= v.Median && v.Median <= v.Q3) {
		t.Errorf("quartiles out of order: %v %v %v", v.Q1, v.Median, v.Q3)
	}
	if v.WhiskerLo > v.Q1 || v.WhiskerHi < v.Q3 {
		t.Errorf("whiskers inside IQR: [%v,%v] vs [%v,%v]", v.WhiskerLo, v.WhiskerHi, v.Q1, v.Q3)
	}
	if _, err := NewViolin("x", nil); err != ErrEmpty {
		t.Errorf("NewViolin(empty) err = %v", err)
	}
}

func TestPearsonSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Pearson linear = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Pearson anti = %v, want -1", got)
	}
	// Spearman is invariant to monotone transforms.
	exp := []float64{math.Exp(1), math.Exp(2), math.Exp(3), math.Exp(4), math.Exp(5)}
	if got := Spearman(xs, exp); !almostEq(got, 1, 1e-12) {
		t.Errorf("Spearman monotone = %v, want 1", got)
	}
	if !math.IsNaN(Pearson(xs, ys[:3])) {
		t.Error("Pearson length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("Pearson zero variance should be NaN")
	}
}

func TestRanksTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestLinearRegression(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) || !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if _, err := LinearRegression([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero-variance x should error")
	}
}

func TestDecomposeTwoFactorPureMainEffects(t *testing.T) {
	// Additive table: response = rowEffect + colEffect. Interaction ~ 0.
	cells := [][]float64{
		{1 + 10, 1 + 20, 1 + 30},
		{2 + 10, 2 + 20, 2 + 30},
		{5 + 10, 5 + 20, 5 + 30},
	}
	d, err := DecomposeTwoFactor(cells)
	if err != nil {
		t.Fatal(err)
	}
	if d.FracInteraction > 1e-9 {
		t.Errorf("additive table interaction fraction = %v, want ~0", d.FracInteraction)
	}
	if !almostEq(d.FracA+d.FracB+d.FracInteraction, 1, 1e-9) {
		t.Errorf("fractions do not sum to 1: %v", d)
	}
}

func TestDecomposeTwoFactorPureInteraction(t *testing.T) {
	// XOR-style table: zero marginal means, all variance is interaction.
	cells := [][]float64{
		{1, -1},
		{-1, 1},
	}
	d, err := DecomposeTwoFactor(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d.FracInteraction, 1, 1e-12) {
		t.Errorf("pure interaction fraction = %v, want 1", d.FracInteraction)
	}
}

func TestDecomposeTwoFactorErrors(t *testing.T) {
	if _, err := DecomposeTwoFactor([][]float64{{1, 2}}); err == nil {
		t.Error("1-row table should error")
	}
	if _, err := DecomposeTwoFactor([][]float64{{1}, {2}}); err == nil {
		t.Error("1-column table should error")
	}
	if _, err := DecomposeTwoFactor([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table should error")
	}
}

func TestDecomposeSumIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := 2+r.Intn(4), 2+r.Intn(4)
		cells := make([][]float64, a)
		for i := range cells {
			cells[i] = make([]float64, b)
			for j := range cells[i] {
				cells[i][j] = r.NormFloat64() * 10
			}
		}
		d, err := DecomposeTwoFactor(cells)
		if err != nil {
			return false
		}
		return almostEq(d.SSA+d.SSB+d.SSInteraction, d.SSTotal, 1e-6*math.Max(1, d.SSTotal))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWinnerChanges(t *testing.T) {
	cells := [][]float64{
		{1, 9, 9},
		{9, 1, 9},
		{9, 9, 1},
	}
	n, winners := WinnerChanges(cells)
	if n != 3 {
		t.Errorf("distinct winners = %d, want 3", n)
	}
	for j, w := range winners {
		if w != j {
			t.Errorf("winner of col %d = %d", j, w)
		}
	}
	dominant := [][]float64{
		{1, 1, 1},
		{2, 2, 2},
	}
	n, _ = WinnerChanges(dominant)
	if n != 1 {
		t.Errorf("dominant winner count = %d, want 1", n)
	}
	if n, w := WinnerChanges(nil); n != 0 || w != nil {
		t.Error("empty table should yield 0 winners")
	}
}
