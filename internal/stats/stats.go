// Package stats provides the descriptive statistics used by the experiment
// harnesses: moments, quantiles, histograms, ECDFs, violin summaries (for
// Figure 3), correlation and regression, bootstrap confidence intervals, and
// a two-factor interaction measure (for the Table 8 PAD-triangle analysis).
//
// All functions are pure and operate on plain []float64 so they compose with
// any simulator output.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty data.
var ErrEmpty = errors.New("stats: empty data")

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// HalfWidth95 returns the half-width of a normal-approximation 95%
// confidence interval for the mean of xs, or 0 for fewer than two
// observations.
func HalfWidth95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the minimum, or +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for empty input.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return cp
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Empty input returns NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile of s, which is sorted ascending and not
// empty.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FiveNum is a five-number summary plus mean, the core of a box/violin plot.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	s := sorted(xs)
	return FiveNum{
		Min:    s[0],
		Q1:     PercentileSorted(s, 25),
		Median: PercentileSorted(s, 50),
		Q3:     PercentileSorted(s, 75),
		Max:    s[len(s)-1],
		Mean:   Mean(xs),
		N:      len(xs),
	}, nil
}

// Histogram bins xs into n equal-width bins over [min,max] and returns the
// bin edges (n+1 values) and counts (n values).
func Histogram(xs []float64, n int) (edges []float64, counts []int) {
	if n <= 0 || len(xs) == 0 {
		return nil, nil
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		hi = lo + 1
	}
	edges = make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	counts = make([]int, n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}

// ECDF returns the empirical CDF evaluated at x.
func ECDF(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := 0
	for _, v := range xs {
		if v <= x {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// Slowdown returns (wait+run)/run, the canonical scheduling quality metric;
// run must be positive.
func Slowdown(wait, run float64) float64 {
	if run <= 0 {
		return math.NaN()
	}
	return (wait + run) / run
}

// BoundedSlowdown returns the bounded slowdown with threshold tau
// (max(1, (wait+run)/max(run,tau))), the standard fix for tiny jobs.
func BoundedSlowdown(wait, run, tau float64) float64 {
	den := run
	if den < tau {
		den = tau
	}
	if den <= 0 {
		return math.NaN()
	}
	s := (wait + run) / den
	if s < 1 {
		return 1
	}
	return s
}

// CoefficientOfVariation returns stddev/mean, a normalized dispersion measure
// used for performance-variability analyses.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// NormalizeToBest divides every value by the minimum value, producing
// relative-performance rows as used in benchmark reports.
func NormalizeToBest(xs []float64) []float64 {
	best := Min(xs)
	out := make([]float64, len(xs))
	if best == 0 || math.IsInf(best, 1) {
		return out
	}
	for i, x := range xs {
		out[i] = x / best
	}
	return out
}
