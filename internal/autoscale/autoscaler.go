// Package autoscale reproduces the paper's autoscaling experiments (§6.7):
// an elasticity testbed that evaluates general and workflow-aware autoscalers
// on workflow-based cloud workloads, computes the Herbst-style elasticity
// metrics, applies real-world-shaped cost models and deadline SLAs, ranks
// autoscalers head-to-head, and corroborates an "in vitro" (fine-grained
// emulation) engine against an independent "in silico" (coarse simulation)
// engine.
package autoscale

import (
	"math"
	"sort"

	"atlarge/internal/stats"
)

// Observation is what an autoscaler sees at each evaluation point.
type Observation struct {
	Now float64
	// Demand is the number of cores wanted right now (running + queued).
	Demand int
	// Supply is the number of provisioned cores (booted or booting).
	Supply int
	// History holds past demand observations, oldest first.
	History []int
	// SoonEligible is the number of cores that workflow structure predicts
	// will be wanted within the provisioning delay (only workflow-aware
	// autoscalers may use it; the engine computes it from DAG state).
	SoonEligible int
	// BootDelay is the VM provisioning latency in virtual seconds.
	BootDelay float64
	// EvalInterval is the autoscaler invocation period in virtual seconds.
	EvalInterval float64
	// Scratch, when not nil, is a buffer the autoscaler may use for its
	// working values and grow; the engine keeps one per run.
	Scratch *[]float64
}

// floats returns n float64s of obs.Scratch, growing it when it is too
// short, or new ones when the observation has no scratch.
func (obs Observation) floats(n int) []float64 {
	if obs.Scratch == nil {
		return make([]float64, n)
	}
	if cap(*obs.Scratch) < n {
		*obs.Scratch = make([]float64, n)
	}
	return (*obs.Scratch)[:n]
}

// Autoscaler decides the target number of cores.
type Autoscaler interface {
	// Name identifies the autoscaler in reports.
	Name() string
	// WorkflowAware reports whether the policy uses workflow structure.
	WorkflowAware() bool
	// Target returns the desired core count given the observation.
	Target(obs Observation) int
}

// clampMin returns v, at least lo.
func clampMin(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// React scales supply to exactly the current demand (Chieu et al. style).
type React struct{}

// Name implements Autoscaler.
func (React) Name() string { return "React" }

// WorkflowAware implements Autoscaler.
func (React) WorkflowAware() bool { return false }

// Target implements Autoscaler.
func (React) Target(obs Observation) int { return clampMin(obs.Demand, 0) }

// Adapt changes supply gradually, limiting each step to a fraction of the
// gap, which dampens oscillation (Ali-Eldin et al. style).
type Adapt struct {
	// StepFraction in (0,1] limits per-decision change; default 0.5.
	StepFraction float64
}

// Name implements Autoscaler.
func (Adapt) Name() string { return "Adapt" }

// WorkflowAware implements Autoscaler.
func (Adapt) WorkflowAware() bool { return false }

// Target implements Autoscaler.
func (a Adapt) Target(obs Observation) int {
	frac := a.StepFraction
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	gap := obs.Demand - obs.Supply
	step := int(math.Ceil(math.Abs(float64(gap)) * frac))
	if gap > 0 {
		return obs.Supply + step
	}
	if gap < 0 {
		return clampMin(obs.Supply-step, 0)
	}
	return obs.Supply
}

// Hist provisions for a high percentile of recent demand (Urgaonkar et al.
// histogram style).
type Hist struct {
	// Window is the number of history points considered; default 60.
	Window int
	// Pct is the target percentile; default 95.
	Pct float64
}

// Name implements Autoscaler.
func (Hist) Name() string { return "Hist" }

// WorkflowAware implements Autoscaler.
func (Hist) WorkflowAware() bool { return false }

// Target implements Autoscaler.
func (h Hist) Target(obs Observation) int {
	w := h.Window
	if w <= 0 {
		w = 60
	}
	p := h.Pct
	if p <= 0 {
		p = 95
	}
	hist := obs.History
	if len(hist) > w {
		hist = hist[len(hist)-w:]
	}
	if len(hist) == 0 {
		return obs.Demand
	}
	xs := obs.floats(len(hist))
	for i, v := range hist {
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	return clampMin(int(math.Ceil(stats.PercentileSorted(xs, p))), 0)
}

// Reg predicts demand one boot-delay ahead with a linear fit over recent
// history (Iqbal et al. regression style).
type Reg struct {
	// Window is the number of history points fitted; default 30.
	Window int
}

// Name implements Autoscaler.
func (Reg) Name() string { return "Reg" }

// WorkflowAware implements Autoscaler.
func (Reg) WorkflowAware() bool { return false }

// Target implements Autoscaler.
func (g Reg) Target(obs Observation) int {
	w := g.Window
	if w <= 0 {
		w = 30
	}
	hist := obs.History
	if len(hist) > w {
		hist = hist[len(hist)-w:]
	}
	if len(hist) < 3 {
		return obs.Demand
	}
	buf := obs.floats(2 * len(hist))
	xs, ys := buf[:len(hist)], buf[len(hist):]
	for i, v := range hist {
		xs[i] = float64(i)
		ys[i] = float64(v)
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return obs.Demand
	}
	// Predict at the point one boot delay past the end of the window.
	steps := 1.0
	if obs.EvalInterval > 0 {
		steps = obs.BootDelay / obs.EvalInterval
	}
	pred := fit.Intercept + fit.Slope*(float64(len(hist)-1)+steps)
	return clampMin(int(math.Ceil(pred)), 0)
}

// ConPaaS predicts the next value with a trend-adjusted weighted moving
// average (ConPaaS autoscaler style).
type ConPaaS struct{}

// Name implements Autoscaler.
func (ConPaaS) Name() string { return "ConPaaS" }

// WorkflowAware implements Autoscaler.
func (ConPaaS) WorkflowAware() bool { return false }

// Target implements Autoscaler.
func (ConPaaS) Target(obs Observation) int {
	hist := obs.History
	if len(hist) < 2 {
		return obs.Demand
	}
	if len(hist) > 10 {
		hist = hist[len(hist)-10:]
	}
	// Weighted moving average, newer points heavier.
	var num, den float64
	for i, v := range hist {
		w := float64(i + 1)
		num += w * float64(v)
		den += w
	}
	wma := num / den
	trend := float64(hist[len(hist)-1]-hist[0]) / float64(len(hist)-1)
	return clampMin(int(math.Ceil(wma+trend)), 0)
}

// Plan is workflow-aware: it provisions for current demand plus the cores
// that workflow structure says become eligible within one boot delay
// (Ilyushkin et al. Plan autoscaler).
type Plan struct{}

// Name implements Autoscaler.
func (Plan) Name() string { return "Plan" }

// WorkflowAware implements Autoscaler.
func (Plan) WorkflowAware() bool { return true }

// Target implements Autoscaler.
func (Plan) Target(obs Observation) int {
	return clampMin(obs.Demand+obs.SoonEligible, 0)
}

// Token is workflow-aware: it estimates the level of parallelism of the next
// wave by propagating tokens one dependency level and provisions for a
// damped combination (Ilyushkin et al. Token autoscaler).
type Token struct{}

// Name implements Autoscaler.
func (Token) Name() string { return "Token" }

// WorkflowAware implements Autoscaler.
func (Token) WorkflowAware() bool { return true }

// Target implements Autoscaler.
func (Token) Target(obs Observation) int {
	// The token estimate discounts the soon-eligible wave because not all
	// tokens materialize within the horizon.
	return clampMin(obs.Demand+int(math.Ceil(float64(obs.SoonEligible)*0.5)), 0)
}

// DefaultAutoscalers returns the seven autoscalers of the §6.7 experiments.
func DefaultAutoscalers() []Autoscaler {
	return []Autoscaler{React{}, Adapt{}, Hist{}, Reg{}, ConPaaS{}, Plan{}, Token{}}
}
