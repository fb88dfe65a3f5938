package mmog

import (
	"math"

	"atlarge/internal/stats"
)

// ProvisioningPolicy decides game-server counts from the population series
// (Nae et al. SC'08/TPDS'11: dynamic resource provisioning for MMOGs).
type ProvisioningPolicy interface {
	// Name identifies the policy.
	Name() string
	// Plan returns the provisioned server count for each hour, given the
	// hourly population series (decisions at hour h may use only hours <
	// h, plus the model's own prediction).
	Plan(hourly []float64, playersPerServer float64) []int
}

// StaticPeak provisions for the historical peak at all times — the classic
// over-provisioned operator baseline.
type StaticPeak struct{}

// Name implements ProvisioningPolicy.
func (StaticPeak) Name() string { return "static-peak" }

// Plan implements ProvisioningPolicy.
func (StaticPeak) Plan(hourly []float64, playersPerServer float64) []int {
	out := make([]int, len(hourly))
	peak := 0.0
	for i, v := range hourly {
		if v > peak {
			peak = v
		}
		out[i] = int(math.Ceil(peak / playersPerServer))
		if i > 0 && out[i] < out[i-1] {
			out[i] = out[i-1] // static: never shrinks
		}
	}
	return out
}

// Predictive uses the same-hour-yesterday value scaled by the recent daily
// trend — the neural/exponential predictors of the MMOG provisioning work
// reduce to this shape for diurnal workloads.
type Predictive struct{ Headroom float64 }

// Name implements ProvisioningPolicy.
func (Predictive) Name() string { return "predictive" }

// Plan implements ProvisioningPolicy.
func (p Predictive) Plan(hourly []float64, playersPerServer float64) []int {
	head := p.Headroom
	if head <= 0 {
		head = 0.1
	}
	out := make([]int, len(hourly))
	for i := range hourly {
		var pred float64
		switch {
		case i >= 48:
			yesterday := hourly[i-24]
			trend := (stats.Mean(hourly[i-24:i]) + 1) / (stats.Mean(hourly[i-48:i-24]) + 1)
			pred = yesterday * trend
		case i >= 24:
			pred = hourly[i-24]
		}
		// Take the max of the diurnal prediction and the last observation:
		// the predictor anticipates ramps, the last observation guards
		// against prediction undershoot.
		if i > 0 && hourly[i-1] > pred {
			pred = hourly[i-1]
		}
		if i == 0 {
			pred = hourly[0]
		}
		out[i] = int(math.Ceil(pred * (1 + head) / playersPerServer))
	}
	return out
}

// ProvisioningReport scores one policy run.
type ProvisioningReport struct {
	Policy string
	// ServerHours is the total provisioned capacity (the cost proxy).
	ServerHours int
	// OverProvisionPct is the mean percentage of idle capacity.
	OverProvisionPct float64
	// QoSViolations is the number of hours with insufficient capacity.
	QoSViolations int
	// ViolationPct is QoSViolations as a share of hours.
	ViolationPct float64
}

// EvaluateProvisioning runs a policy against the series and scores it.
func EvaluateProvisioning(p ProvisioningPolicy, hourly []float64, playersPerServer float64) ProvisioningReport {
	plan := p.Plan(hourly, playersPerServer)
	rep := ProvisioningReport{Policy: p.Name()}
	var overSum float64
	for i, servers := range plan {
		rep.ServerHours += servers
		need := hourly[i] / playersPerServer
		if float64(servers) < need {
			rep.QoSViolations++
		} else if need > 0 {
			overSum += (float64(servers) - need) / math.Max(need, 1)
		}
	}
	if len(plan) > 0 {
		rep.OverProvisionPct = 100 * overSum / float64(len(plan))
		rep.ViolationPct = 100 * float64(rep.QoSViolations) / float64(len(plan))
	}
	return rep
}
