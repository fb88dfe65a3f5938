package workload

import (
	"fmt"
	"math"
	"math/rand"

	"atlarge/internal/sim"
)

// ArrivalProcess produces a sequence of submission times.
//
// Every process is defined incrementally: NextAfter draws the next arrival
// strictly after a given time using O(1) state, which is what lets a
// Population hold one cursor per client instead of a materialized slice per
// client. Times is the eager form and is defined as n repeated NextAfter
// calls, so the two are draw-for-draw identical on the same RNG.
type ArrivalProcess interface {
	// Times returns n arrival times starting at 0, non-decreasing.
	Times(n int, r *rand.Rand) []sim.Time
	// NextAfter returns the next arrival after time t for this process with
	// its rate scaled by mult (> 0). mult scales the whole intensity
	// function, so thinning acceptance ratios are unchanged and mult = 1
	// reproduces Times draw-for-draw.
	NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time
	// Validate rejects parameterizations that would stall or hang
	// generation (non-positive rates, scales, periods, ...).
	Validate() error
	// String describes the process for reports.
	String() string
}

// times implements Times for any process in terms of NextAfter.
func times(p ArrivalProcess, n int, r *rand.Rand) []sim.Time {
	out := make([]sim.Time, n)
	t := sim.Time(0)
	for i := range out {
		t = p.NextAfter(t, 1, r)
		out[i] = t
	}
	return out
}

// positive reports whether v is a positive finite number; the !(v > 0) form
// also catches NaN.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// PoissonArrivals is the classical memoryless arrival process with the given
// rate (events per virtual second). The paper notes that the seminal
// Pouwelse et al. BitTorrent study debunked Poisson arrivals for P2P; we keep
// it as the baseline to contrast with bursty processes.
type PoissonArrivals struct{ Rate float64 }

// Times implements ArrivalProcess.
func (p PoissonArrivals) Times(n int, r *rand.Rand) []sim.Time { return times(p, n, r) }

// NextAfter implements ArrivalProcess.
func (p PoissonArrivals) NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time {
	return t + sim.Duration(r.ExpFloat64()/(p.Rate*mult))
}

// Validate implements ArrivalProcess.
func (p PoissonArrivals) Validate() error {
	if !positive(p.Rate) {
		return fmt.Errorf("workload: poisson arrivals need rate > 0, got %v", p.Rate)
	}
	return nil
}

func (p PoissonArrivals) String() string { return "poisson" }

// WeibullArrivals draws inter-arrival gaps from a Weibull distribution;
// shape K < 1 yields the bursty arrivals observed in grid and P2P traces.
type WeibullArrivals struct {
	Scale float64
	K     float64
}

// Times implements ArrivalProcess.
func (w WeibullArrivals) Times(n int, r *rand.Rand) []sim.Time { return times(w, n, r) }

// NextAfter implements ArrivalProcess. Scaling the rate by mult divides the
// Weibull scale parameter, leaving the shape (burstiness) untouched.
func (w WeibullArrivals) NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time {
	d := sim.Weibull{Lambda: w.Scale / mult, K: w.K}
	return t + sim.Duration(d.Sample(r))
}

// Validate implements ArrivalProcess.
func (w WeibullArrivals) Validate() error {
	if !positive(w.Scale) {
		return fmt.Errorf("workload: weibull arrivals need scale > 0, got %v", w.Scale)
	}
	if !positive(w.K) {
		return fmt.Errorf("workload: weibull arrivals need k > 0, got %v", w.K)
	}
	return nil
}

func (w WeibullArrivals) String() string { return "weibull" }

// GammaArrivals draws inter-arrival gaps from a Gamma distribution with unit
// mean 1/Rate: Shape < 1 gives over-dispersed, bursty arrivals (CV > 1),
// Shape = 1 degenerates to Poisson, Shape > 1 is smoother than Poisson. This
// is the bursty renewal process used by ServeGen-style client models.
type GammaArrivals struct {
	Rate  float64 // mean arrival rate (events per virtual second)
	Shape float64 // Gamma shape; < 1 bursty, 1 Poisson, > 1 regular
}

// Times implements ArrivalProcess.
func (g GammaArrivals) Times(n int, r *rand.Rand) []sim.Time { return times(g, n, r) }

// NextAfter implements ArrivalProcess. The scale is Shape/(Rate·mult) so the
// mean gap is 1/(Rate·mult) for any shape.
func (g GammaArrivals) NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time {
	d := sim.Gamma{Shape: g.Shape, Scale: 1 / (g.Shape * g.Rate * mult)}
	return t + sim.Duration(d.Sample(r))
}

// Validate implements ArrivalProcess.
func (g GammaArrivals) Validate() error {
	if !positive(g.Rate) {
		return fmt.Errorf("workload: gamma arrivals need rate > 0, got %v", g.Rate)
	}
	if !positive(g.Shape) {
		return fmt.Errorf("workload: gamma arrivals need shape > 0, got %v", g.Shape)
	}
	return nil
}

func (g GammaArrivals) String() string { return "gamma" }

// DiurnalArrivals modulates a base Poisson rate with a day/night sinusoid of
// the given period and relative amplitude in [0,1). It reproduces the
// short-term dynamics of MMOG and business-critical workloads.
type DiurnalArrivals struct {
	BaseRate  float64
	Period    sim.Duration
	Amplitude float64
}

// Times implements ArrivalProcess via thinning of a dominating Poisson
// process.
func (d DiurnalArrivals) Times(n int, r *rand.Rand) []sim.Time { return times(d, n, r) }

// NextAfter implements ArrivalProcess. mult scales both the instantaneous
// and the dominating rate, so the acceptance ratio — and hence the expected
// number of thinning iterations — is independent of mult. A dominating rate
// of 0 (mult 0, or a product that underflows) never arrives, and neither
// does a time that reaches +Inf: both return +Inf, as PoissonArrivals does.
func (d DiurnalArrivals) NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time {
	maxRate := d.BaseRate * mult * (1 + d.Amplitude)
	if maxRate == 0 {
		return sim.Time(math.Inf(1))
	}
	for {
		t += sim.Duration(r.ExpFloat64() / maxRate)
		if math.IsInf(float64(t), 1) {
			return t
		}
		phase := 2 * math.Pi * float64(t) / float64(d.Period)
		rate := d.BaseRate * mult * (1 + d.Amplitude*math.Sin(phase))
		if r.Float64() < rate/maxRate {
			return t
		}
	}
}

// Validate implements ArrivalProcess.
func (d DiurnalArrivals) Validate() error {
	if !positive(d.BaseRate) {
		return fmt.Errorf("workload: diurnal arrivals need rate > 0, got %v", d.BaseRate)
	}
	if !positive(float64(d.Period)) {
		return fmt.Errorf("workload: diurnal arrivals need period > 0, got %v", d.Period)
	}
	if d.Amplitude < 0 || d.Amplitude >= 1 || math.IsNaN(d.Amplitude) {
		return fmt.Errorf("workload: diurnal arrivals need amplitude in [0,1), got %v", d.Amplitude)
	}
	return nil
}

func (d DiurnalArrivals) String() string { return "diurnal" }

// FlashcrowdArrivals superimposes a sudden burst on a base Poisson process:
// at StartAt, the rate multiplies by Spike and then decays exponentially with
// the given half-life. This is the arrival model behind the paper's
// P2P flashcrowd studies (Zhang et al. 2011).
type FlashcrowdArrivals struct {
	BaseRate float64
	StartAt  sim.Time
	Spike    float64 // multiplicative surge, e.g. 50
	HalfLife sim.Duration
}

// Times implements ArrivalProcess via thinning.
func (f FlashcrowdArrivals) Times(n int, r *rand.Rand) []sim.Time { return times(f, n, r) }

// NextAfter implements ArrivalProcess. Like DiurnalArrivals it returns
// +Inf when the dominating rate is 0 or the time reaches +Inf.
func (f FlashcrowdArrivals) NextAfter(t sim.Time, mult float64, r *rand.Rand) sim.Time {
	maxRate := f.BaseRate * mult * f.Spike
	if maxRate == 0 {
		return sim.Time(math.Inf(1))
	}
	for {
		t += sim.Duration(r.ExpFloat64() / maxRate)
		if math.IsInf(float64(t), 1) {
			return t
		}
		rate := mult * f.RateAt(t)
		if r.Float64() < rate/maxRate {
			return t
		}
	}
}

// RateAt returns the instantaneous arrival rate at time t.
func (f FlashcrowdArrivals) RateAt(t sim.Time) float64 {
	if t < f.StartAt {
		return f.BaseRate
	}
	elapsed := float64(t - f.StartAt)
	decay := math.Exp2(-elapsed / float64(f.HalfLife))
	return f.BaseRate * (1 + (f.Spike-1)*decay)
}

// Validate implements ArrivalProcess.
func (f FlashcrowdArrivals) Validate() error {
	if !positive(f.BaseRate) {
		return fmt.Errorf("workload: flashcrowd arrivals need rate > 0, got %v", f.BaseRate)
	}
	if f.Spike < 1 || math.IsInf(f.Spike, 1) || math.IsNaN(f.Spike) {
		return fmt.Errorf("workload: flashcrowd arrivals need spike >= 1, got %v", f.Spike)
	}
	if !positive(float64(f.HalfLife)) {
		return fmt.Errorf("workload: flashcrowd arrivals need halflife > 0, got %v", f.HalfLife)
	}
	if f.StartAt < 0 || math.IsNaN(float64(f.StartAt)) {
		return fmt.Errorf("workload: flashcrowd arrivals need start >= 0, got %v", f.StartAt)
	}
	return nil
}

func (f FlashcrowdArrivals) String() string { return "flashcrowd" }
