package autoscale

import (
	"fmt"
	"math/rand"
	"sort"

	"atlarge/internal/stats"
	"atlarge/internal/workload"
)

// ExperimentConfig scales the §6.7 experiment.
type ExperimentConfig struct {
	Jobs int
	Seed int64
}

// DefaultExperimentConfig returns the benchmark-scale configuration.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{Jobs: 40, Seed: 42}
}

// ExperimentResult is the full §6.7 outcome: per-autoscaler metrics under
// both engines, the two rankings, the grading, cost analysis, and the
// in-vitro/in-silico corroboration.
type ExperimentResult struct {
	Vitro  map[string]ElasticityMetrics
	Silico map[string]ElasticityMetrics

	AvgRankVitro map[string]float64
	HeadToHead   map[string]map[string]int
	GradesVitro  map[string]float64

	// CostByModel maps cost-model name -> autoscaler -> dollars (vitro).
	CostByModel map[string]map[string]float64

	// RankCorrelation is the Spearman correlation between the vitro and
	// silico average-rank orders; the paper's corroboration finding is that
	// it is positive but below 1 (discrepancies exist).
	RankCorrelation float64
}

// RunExperiment executes the complete autoscaling study on a workflow-heavy
// scientific workload.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(cfg.Jobs, r)
	// The 14 runs share one prepared trace, with its kernel and in-vitro
	// state.
	p, err := prepare(tr)
	if err != nil {
		return nil, err
	}

	res := &ExperimentResult{
		Vitro:       make(map[string]ElasticityMetrics),
		Silico:      make(map[string]ElasticityMetrics),
		CostByModel: make(map[string]map[string]float64),
	}
	for _, as := range DefaultAutoscalers() {
		vs, err := p.run(DefaultVitroConfig(), as)
		if err != nil {
			return nil, fmt.Errorf("autoscale: vitro %s: %w", as.Name(), err)
		}
		res.Vitro[as.Name()] = ComputeMetrics(vs)

		ss, err := p.run(DefaultSilicoConfig(), as)
		if err != nil {
			return nil, fmt.Errorf("autoscale: silico %s: %w", as.Name(), err)
		}
		res.Silico[as.Name()] = ComputeMetrics(ss)
	}

	res.AvgRankVitro = AverageRank(res.Vitro)
	res.HeadToHead = HeadToHead(res.Vitro)
	res.GradesVitro = Grade(res.Vitro)

	for _, cm := range StandardCostModels() {
		costs := make(map[string]float64, len(res.Vitro))
		for name, m := range res.Vitro {
			costs[name] = cm.Cost(m.CoreSeconds)
		}
		res.CostByModel[cm.Name] = costs
	}

	res.RankCorrelation = rankCorrelation(res.Vitro, res.Silico)
	return res, nil
}

// rankCorrelation computes the Spearman correlation between the average
// ranks of the two engines.
func rankCorrelation(a, b map[string]ElasticityMetrics) float64 {
	ra := AverageRank(a)
	rb := AverageRank(b)
	names := make([]string, 0, len(ra))
	for n := range ra {
		if _, ok := rb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	xs := make([]float64, len(names))
	ys := make([]float64, len(names))
	for i, n := range names {
		xs[i] = ra[n]
		ys[i] = rb[n]
	}
	return stats.Spearman(xs, ys)
}
