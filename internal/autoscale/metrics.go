package autoscale

import (
	"math"
	"sort"

	"atlarge/internal/stats"
)

// ElasticityMetrics are the ten §6.7 evaluation metrics: the Herbst-style
// elasticity set (accuracy and timeshare of over/under-provisioning,
// instability, jitter), traditional performance metrics (response time,
// slowdown), and the operational metrics (core-seconds, deadline-miss rate).
// For every metric, lower is better.
type ElasticityMetrics struct {
	AccuracyUnder   float64 // mean under-provisioned cores (normalized by peak demand)
	AccuracyOver    float64 // mean over-provisioned cores (normalized by peak demand)
	TimeshareUnder  float64 // fraction of time under-provisioned
	TimeshareOver   float64 // fraction of time over-provisioned
	Instability     float64 // fraction of steps where supply changes direction
	Jitter          float64 // |supply changes − demand changes| per step
	MeanResponse    float64 // mean job response time (s)
	MeanSlowdown    float64 // mean bounded job slowdown
	CoreSeconds     float64 // provisioned capacity integral
	DeadlineMissPct float64 // % of jobs missing their deadline
}

// MetricNames lists the metric keys in canonical order.
func MetricNames() []string {
	return []string{
		"accuracy_under", "accuracy_over", "timeshare_under", "timeshare_over",
		"instability", "jitter", "mean_response", "mean_slowdown",
		"core_seconds", "deadline_miss_pct",
	}
}

// Metric returns the metric named by a MetricNames key, or 0 for any other
// name.
func (m ElasticityMetrics) Metric(name string) float64 {
	switch name {
	case "accuracy_under":
		return m.AccuracyUnder
	case "accuracy_over":
		return m.AccuracyOver
	case "timeshare_under":
		return m.TimeshareUnder
	case "timeshare_over":
		return m.TimeshareOver
	case "instability":
		return m.Instability
	case "jitter":
		return m.Jitter
	case "mean_response":
		return m.MeanResponse
	case "mean_slowdown":
		return m.MeanSlowdown
	case "core_seconds":
		return m.CoreSeconds
	case "deadline_miss_pct":
		return m.DeadlineMissPct
	default:
		return 0
	}
}

// Series summarises a supply/demand series sampled once per Step: the
// sample count, the peak demand, the under- and over-provisioning sums and
// counts, the supply slope's sign flips and the supply and demand change
// counts. That is all ComputeMetrics reads of the series, so a run keeps
// O(1) state for it, whatever its horizon. The zero value is empty.
type Series struct {
	n              int
	peak           int // largest demand
	under, over    float64
	tUnder, tOver  int
	flips          int // interior points where the supply slope changes sign
	supplyChanges  int
	demandChanges  int
	supply, demand int // the last sample
	slope          int // sign of the last nonzero supply change
}

// Add appends one sample.
func (s *Series) Add(supply, demand int) {
	if s.n > 0 {
		if supply != s.supply {
			s.supplyChanges++
			d := sign(supply - s.supply)
			if s.slope != 0 && d != s.slope {
				s.flips++
			}
			s.slope = d
		}
		if demand != s.demand {
			s.demandChanges++
		}
	}
	s.n++
	s.supply, s.demand = supply, demand
	if demand > s.peak {
		s.peak = demand
	}
	if gap := demand - supply; gap > 0 {
		s.under += float64(gap)
		s.tUnder++
	} else if gap < 0 {
		s.over += float64(-gap)
		s.tOver++
	}
}

// Len returns the number of samples added.
func (s *Series) Len() int { return s.n }

// ComputeMetrics derives the ten metrics from a run.
func ComputeMetrics(st *RunStats) ElasticityMetrics {
	var m ElasticityMetrics
	s := &st.Series
	if s.n == 0 {
		return m
	}
	n := float64(s.n)
	peak := s.peak
	if peak == 0 {
		peak = 1
	}
	m.AccuracyUnder = s.under / n / float64(peak)
	m.AccuracyOver = s.over / n / float64(peak)
	m.TimeshareUnder = float64(s.tUnder) / n
	m.TimeshareOver = float64(s.tOver) / n
	if s.n >= 3 {
		m.Instability = float64(s.flips) / float64(s.n-2)
	}
	m.Jitter = math.Abs(float64(s.supplyChanges)-float64(s.demandChanges)) / n
	m.MeanResponse = stats.Mean(st.JobResponse)
	m.MeanSlowdown = stats.Mean(st.JobSlowdown)
	m.CoreSeconds = st.CoreSeconds
	if st.JobsDone > 0 {
		m.DeadlineMissPct = 100 * float64(st.DeadlineMiss) / float64(st.JobsDone)
	}
	return m
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// CostModel converts provisioned capacity into money, following the §6.7
// cost analysis with several real-world-shaped billing schemes.
type CostModel struct {
	Name string
	// PricePerCoreHour in dollars.
	PricePerCoreHour float64
	// Granularity rounds each VM's total usage up to a multiple (seconds).
	// The engines track aggregate core-seconds, so granularity is applied to
	// the aggregate as an approximation.
	Granularity float64
}

// StandardCostModels returns the per-hour, per-minute, and per-second
// billing models used in the cost analysis.
func StandardCostModels() []CostModel {
	return []CostModel{
		{Name: "per-hour", PricePerCoreHour: 0.10, Granularity: 3600},
		{Name: "per-minute", PricePerCoreHour: 0.105, Granularity: 60},
		{Name: "per-second", PricePerCoreHour: 0.11, Granularity: 1},
	}
}

// Cost returns the charged cost of coreSeconds of provisioned capacity.
func (c CostModel) Cost(coreSeconds float64) float64 {
	s := coreSeconds
	if c.Granularity > 1 {
		units := math.Ceil(s / c.Granularity)
		s = units * c.Granularity
	}
	return s / 3600 * c.PricePerCoreHour
}

// RankByMetric returns, for one metric (lower is better), the autoscaler
// names in rank order.
func RankByMetric(results map[string]ElasticityMetrics, metric string) []string {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.SliceStable(names, func(i, j int) bool {
		a := results[names[i]].Metric(metric)
		b := results[names[j]].Metric(metric)
		if a != b {
			return a < b
		}
		return names[i] < names[j]
	})
	return names
}

// AverageRank is ranking method 1 of the paper: rank per metric (ties share
// the mean rank), then average the ranks over all metrics. Lower is better.
func AverageRank(results map[string]ElasticityMetrics) map[string]float64 {
	sum := make(map[string]float64, len(results))
	for _, metric := range MetricNames() {
		order := RankByMetric(results, metric)
		// Assign average ranks to runs of equal metric values.
		for i := 0; i < len(order); {
			j := i
			vi := results[order[i]].Metric(metric)
			for j+1 < len(order) && results[order[j+1]].Metric(metric) == vi {
				j++
			}
			avg := float64(i+j)/2 + 1
			for k := i; k <= j; k++ {
				sum[order[k]] += avg
			}
			i = j + 1
		}
	}
	out := make(map[string]float64, len(results))
	for name, s := range sum {
		out[name] = s / float64(len(MetricNames()))
	}
	return out
}

// HeadToHead is ranking method 2: pairwise tournaments. wins[a][b] counts
// the metrics on which a strictly beats b.
func HeadToHead(results map[string]ElasticityMetrics) map[string]map[string]int {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	metrics := MetricNames()
	wins := make(map[string]map[string]int, len(names))
	for _, a := range names {
		wins[a] = make(map[string]int, len(names)-1)
		for _, b := range names {
			if a == b {
				continue
			}
			am, bm := results[a], results[b]
			for _, metric := range metrics {
				if am.Metric(metric) < bm.Metric(metric) {
					wins[a][b]++
				}
			}
		}
	}
	return wins
}

// Grade is the paper's grading method: combine the per-metric scores
// judiciously into one grade per autoscaler. Each metric is normalized to
// the best observed value and the grade is the geometric mean of the
// normalized scores (1.0 is a perfect sweep; higher is worse).
func Grade(results map[string]ElasticityMetrics) map[string]float64 {
	metrics := MetricNames()
	best := make(map[string]float64, len(metrics))
	for _, metric := range metrics {
		b := math.Inf(1)
		for _, m := range results {
			if v := m.Metric(metric); v < b {
				b = v
			}
		}
		best[metric] = b
	}
	out := make(map[string]float64, len(results))
	for name, m := range results {
		logSum := 0.0
		count := 0
		for _, metric := range metrics {
			b := best[metric]
			v := m.Metric(metric)
			// Shift scale-free metrics away from zero so ratios stay finite.
			const eps = 1e-6
			ratio := (v + eps) / (b + eps)
			logSum += math.Log(ratio)
			count++
		}
		out[name] = math.Exp(logSum / float64(count))
	}
	return out
}
