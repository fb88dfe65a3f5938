package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a sampleable distribution of non-negative durations or sizes.
// Implementations must be deterministic given the supplied RNG.
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean (may be +Inf for heavy tails).
	Mean() float64
	// String describes the distribution for reports.
	String() string
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct{ Value float64 }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("const(%g)", c.Value) }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct{ Low, High float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Low + r.Float64()*(u.High-u.Low) }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Low + u.High) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.Low, u.High) }

// Exponential has rate Lambda (mean 1/Lambda). It models memoryless
// inter-arrival times (Poisson processes).
type Exponential struct{ Lambda float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Lambda }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

func (e Exponential) String() string { return fmt.Sprintf("exp(λ=%g)", e.Lambda) }

// LogNormal has parameters Mu and Sigma of the underlying normal. Job runtimes
// in production traces are commonly close to log-normal.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string { return fmt.Sprintf("lognormal(μ=%g,σ=%g)", l.Mu, l.Sigma) }

// Pareto is the Pareto (power-law) distribution with scale Xm and shape Alpha.
// It models heavy-tailed file sizes and swarm popularity.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean implements Dist.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("pareto(xm=%g,α=%g)", p.Xm, p.Alpha) }

// Weibull has scale Lambda and shape K. K<1 gives bursty inter-arrivals, as
// observed in grid workloads (contra the Poisson assumption the paper notes
// was debunked by the Pouwelse et al. BitTorrent study).
type Weibull struct {
	Lambda float64
	K      float64
}

// Sample implements Dist.
func (w Weibull) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}

// Mean implements Dist.
func (w Weibull) Mean() float64 { return w.Lambda * gamma(1+1/w.K) }

func (w Weibull) String() string { return fmt.Sprintf("weibull(λ=%g,k=%g)", w.Lambda, w.K) }

// gamma computes the Gamma function via the Lanczos approximation, enough for
// Weibull means.
func gamma(x float64) float64 {
	// Use math.Gamma from stdlib.
	return math.Gamma(x)
}

// Gamma has shape Shape and scale Scale (mean Shape·Scale). Shape < 1 gives
// over-dispersed, bursty values (CV > 1); Shape = 1 is Exponential. It is the
// renewal process behind bursty per-client arrival models.
type Gamma struct {
	Shape float64
	Scale float64
}

// Sample implements Dist via the Marsaglia–Tsang squeeze method, with the
// standard U^(1/shape) boost for Shape < 1.
func (g Gamma) Sample(r *rand.Rand) float64 {
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		boost = math.Pow(u, 1/shape)
		shape++
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return g.Scale * boost * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return g.Scale * boost * d * v
		}
	}
}

// Mean implements Dist.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

func (g Gamma) String() string { return fmt.Sprintf("gamma(k=%g,θ=%g)", g.Shape, g.Scale) }
