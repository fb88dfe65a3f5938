package autoscale

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"atlarge/internal/stats"
)

// sliceMetrics is the slice-based ComputeMetrics that Series replaced, kept
// as the reference: it derives the metrics from the whole supply/demand
// series of st.
func sliceMetrics(st *RunStats, supply, demand []int) ElasticityMetrics {
	var m ElasticityMetrics
	n := len(supply)
	if n == 0 {
		return m
	}
	peak := 0
	for _, d := range demand {
		if d > peak {
			peak = d
		}
	}
	if peak == 0 {
		peak = 1
	}
	var under, over float64
	var tUnder, tOver int
	for i := 0; i < n; i++ {
		gap := demand[i] - supply[i]
		if gap > 0 {
			under += float64(gap)
			tUnder++
		} else if gap < 0 {
			over += float64(-gap)
			tOver++
		}
	}
	m.AccuracyUnder = under / float64(n) / float64(peak)
	m.AccuracyOver = over / float64(n) / float64(peak)
	m.TimeshareUnder = float64(tUnder) / float64(n)
	m.TimeshareOver = float64(tOver) / float64(n)
	m.Instability = sliceInstability(supply)
	m.Jitter = math.Abs(sliceChanges(supply)-sliceChanges(demand)) / float64(n)
	m.MeanResponse = stats.Mean(st.JobResponse)
	m.MeanSlowdown = stats.Mean(st.JobSlowdown)
	m.CoreSeconds = st.CoreSeconds
	if st.JobsDone > 0 {
		m.DeadlineMissPct = 100 * float64(st.DeadlineMiss) / float64(st.JobsDone)
	}
	return m
}

// sliceInstability is the fraction of interior points where the supply
// slope changes sign.
func sliceInstability(xs []int) float64 {
	if len(xs) < 3 {
		return 0
	}
	flips := 0
	prev := 0
	for i := 1; i < len(xs); i++ {
		d := sign(xs[i] - xs[i-1])
		if d != 0 && prev != 0 && d != prev {
			flips++
		}
		if d != 0 {
			prev = d
		}
	}
	return float64(flips) / float64(len(xs)-2)
}

// sliceChanges counts direction-ful steps in the series.
func sliceChanges(xs []int) float64 {
	c := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			c++
		}
	}
	return float64(c)
}

// sameBits reports whether every metric of a and b has the same bits.
func sameBits(a, b ElasticityMetrics) bool {
	for _, name := range MetricNames() {
		if math.Float64bits(a.Metric(name)) != math.Float64bits(b.Metric(name)) {
			return false
		}
	}
	return true
}

// TestSeriesMatchesSliceReference checks that ComputeMetrics over a Series
// is bit-identical to the slice formulas over the same samples: random
// series of every short length, with and without all-zero demand (peak 0
// reads as 1) and constant supply.
func TestSeriesMatchesSliceReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := trial % 40
		zeroDemand, flatSupply := trial%5 == 1, trial%7 == 2
		span := 1 + r.Intn(50) // small spans make ties and flat runs likely
		supply, demand := make([]int, n), make([]int, n)
		st := &RunStats{CoreSeconds: float64(r.Intn(1000))}
		for i := 0; i < n; i++ {
			supply[i], demand[i] = r.Intn(span), r.Intn(span)
			if zeroDemand {
				demand[i] = 0
			}
			if flatSupply {
				supply[i] = span
			}
			st.Series.Add(supply[i], demand[i])
		}
		for i := r.Intn(5); i > 0; i-- {
			st.JobResponse = append(st.JobResponse, 1000*r.Float64())
			st.JobSlowdown = append(st.JobSlowdown, 1+9*r.Float64())
			st.JobsDone++
			if r.Intn(2) == 0 {
				st.DeadlineMiss++
			}
		}
		if st.Series.Len() != n {
			t.Fatalf("trial %d: Len %d, want %d", trial, st.Series.Len(), n)
		}
		got, want := ComputeMetrics(st), sliceMetrics(st, supply, demand)
		if !sameBits(got, want) {
			t.Fatalf("trial %d (supply %v, demand %v):\n got %+v\nwant %+v", trial, supply, demand, got, want)
		}
	}
}

// TestMetricsFingerprint pins every bit of the metrics of RunExperiment's
// 7 autoscalers under both engines at seeds 0-19, as the slice-based series
// and the ID-keyed in-vitro maps produced them.
func TestMetricsFingerprint(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for seed := int64(0); seed < 20; seed++ {
		res, err := RunExperiment(ExperimentConfig{Jobs: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, byName := range []map[string]ElasticityMetrics{res.Vitro, res.Silico} {
			for _, name := range Names() {
				m := byName[name]
				for _, metric := range MetricNames() {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Metric(metric)))
					h.Write(buf[:])
				}
			}
		}
	}
	const want = "28bc97c605faed853d31062be64fe50eb960cbfc389a6108ddc435af26f63d89"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("metrics fingerprint = %s, want %s", got, want)
	}
}
