package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.At(at, "e", func(k *Kernel) { got = append(got, k.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSimultaneousEventsAreFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, "tie", func(*Kernel) { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(10, "outer", func(k *Kernel) {
		k.After(5, "inner", func(k *Kernel) { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 15 {
		t.Errorf("inner event fired at %v, want 15", at)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, "outer", func(k *Kernel) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, "past", func(*Kernel) {})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	ref := k.At(1, "doomed", func(*Kernel) { fired = true })
	ref.Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if k.fired != 0 {
		t.Errorf("EventsFired = %d, want 0", k.fired)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 5; i++ {
		k.At(Time(i), "e", func(k *Kernel) {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("fired %d events before stop, want 3", count)
	}
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		at := Time(i)
		k.At(at, "e", func(k *Kernel) { fired = append(fired, k.Now()) })
	}
	k.SetHorizon(4)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want 4 (horizon)", len(fired))
	}
	if k.Now() != 4 {
		t.Errorf("Now = %v, want horizon 4", k.Now())
	}
}

func TestKernelStep(t *testing.T) {
	k := NewKernel(1)
	k.At(1, "a", func(*Kernel) {})
	k.At(2, "b", func(*Kernel) {})
	ok, err := k.Step()
	if err != nil || !ok {
		t.Fatalf("Step = (%v,%v), want (true,nil)", ok, err)
	}
	if k.Now() != 1 {
		t.Errorf("Now = %v after one step, want 1", k.Now())
	}
	if _, err := k.Step(); err != nil {
		t.Fatalf("second Step: %v", err)
	}
	ok, err = k.Step()
	if err != nil || ok {
		t.Fatalf("exhausted Step = (%v,%v), want (false,nil)", ok, err)
	}
}

func TestKernelDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []float64 {
		k := NewKernel(seed)
		var draws []float64
		var tick func(k *Kernel)
		n := 0
		tick = func(k *Kernel) {
			draws = append(draws, k.Rand("svc").Float64())
			n++
			if n < 50 {
				k.After(Duration(k.Rand("arr").ExpFloat64()), "tick", tick)
			}
		}
		k.After(0, "tick", tick)
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs produced different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical draws")
	}
}

func TestRandStreamsAreIndependent(t *testing.T) {
	k := NewKernel(7)
	a1 := k.Rand("a").Float64()
	k2 := NewKernel(7)
	_ = k2.Rand("b").Float64() // interleave a draw from another stream
	a2 := k2.Rand("a").Float64()
	if a1 != a2 {
		t.Errorf("stream a perturbed by stream b: %v vs %v", a1, a2)
	}
}

func TestKernelEventOrderProperty(t *testing.T) {
	// Property: for any set of event times, execution order is the sorted
	// order of times.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel(1)
		var fired []Time
		for _, v := range raw {
			at := Time(v)
			k.At(at, "p", func(k *Kernel) { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		want := make([]Time, len(raw))
		for i, v := range raw {
			want[i] = Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistMeans(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 200000
	tests := []struct {
		d   Dist
		tol float64
	}{
		{Constant{Value: 3}, 0.0001},
		{Uniform{Low: 2, High: 6}, 0.05},
		{Exponential{Lambda: 0.5}, 0.05},
		{LogNormal{Mu: 1, Sigma: 0.5}, 0.05},
		{Pareto{Xm: 1, Alpha: 3}, 0.05},
		{Weibull{Lambda: 2, K: 1.5}, 0.05},
	}
	for _, tt := range tests {
		t.Run(tt.d.String(), func(t *testing.T) {
			sum := 0.0
			for i := 0; i < n; i++ {
				v := tt.d.Sample(r)
				if v < 0 {
					t.Fatalf("negative sample %v", v)
				}
				sum += v
			}
			got := sum / n
			want := tt.d.Mean()
			if math.Abs(got-want)/want > tt.tol {
				t.Errorf("empirical mean %v, want %v (±%v rel)", got, want, tt.tol)
			}
		})
	}
}

func TestDistSamplesNonNegativeProperty(t *testing.T) {
	dists := []Dist{
		Exponential{Lambda: 2},
		LogNormal{Mu: 0, Sigma: 1},
		Pareto{Xm: 0.5, Alpha: 1.1},
		Weibull{Lambda: 1, K: 0.7},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, d := range dists {
			for i := 0; i < 100; i++ {
				if v := d.Sample(r); v < 0 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	var rec Recorder
	rec.Record("util", 0, 0.5)
	rec.Record("util", 10, 1.0)
	rec.Record("util", 20, 0.0)
	rec.Record("other", 1, 2)

	if got := rec.Len("util"); got != 3 {
		t.Errorf("Len(util) = %d, want 3", got)
	}
	if got := rec.Values("util"); len(got) != 3 || got[1] != 1.0 {
		t.Errorf("Values(util) = %v", got)
	}
	names := rec.Names()
	if len(names) != 2 || names[0] != "other" || names[1] != "util" {
		t.Errorf("Names = %v", names)
	}
}
