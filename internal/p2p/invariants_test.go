package p2p

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/stats"
	"atlarge/internal/workload"
)

// TestSwarmInvariantsProperty checks, over random swarm configurations:
//
//  1. completed downloads never exceed scheduled arrivals;
//  2. every download respects the peer's capacity bound
//     (duration >= filesize / downCap);
//  3. completion times are causally ordered after joins.
func TestSwarmInvariantsProperty(t *testing.T) {
	f := func(seed int64, peersRaw uint8) bool {
		peers := int(peersRaw%20) + 3
		cfg := DefaultSwarmConfig()
		cfg.Seed = seed
		cfg.FileSize = 20e6
		sw, err := NewSwarm(cfg)
		if err != nil {
			return false
		}
		arr := workload.PoissonArrivals{Rate: 0.05}
		sw.ScheduleArrivals(arr.Times(peers, rand.New(rand.NewSource(seed))))
		if err := sw.Run(200000, 10); err != nil {
			return false
		}
		recs := sw.Records()
		if len(recs) > peers {
			return false
		}
		capByClass := map[string]float64{}
		for _, c := range cfg.Classes {
			capByClass[c.Name] = c.Down
		}
		for _, r := range recs {
			if r.DoneAt <= r.JoinAt {
				return false
			}
			// Allow one progress-tick (10s) of slack from the fluid model.
			minDur := cfg.FileSize/capByClass[r.Class] - 10
			if r.Duration < minDur {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMonitorEstimateScalesWithSample checks the estimator's core property:
// full sampling with spam filtering lands closer to ground truth than a
// small raw sample, for arbitrary seeds, up to the small sample's own
// sampling noise.
//
// The full scrape has no sampling error; its bias comes from spam trackers
// that slip past the filter. The 10% scrape's bias is spam plus sampling
// error, and a spam-free lucky draw can land nearer the truth than the full
// scrape. The slack is therefore one standard error of the 10% estimate
// (sampleSE). Over seeds 12345+7919·i for i < 2000 and the former
// counterexample 5823212369094610651 (which failed a fixed 0.05 slack), the
// full scrape's excess error peaked at 0.52 standard errors.
func TestMonitorEstimateScalesWithSample(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultEcosystemConfig()
		cfg.Seed = seed
		eco := GenerateEcosystem(cfg)
		small, err := Monitor{SampleFraction: 0.1, Seed: seed}.Scrape(eco)
		if err != nil {
			return false
		}
		full, err := Monitor{SampleFraction: 1, FilterSpam: true, Seed: seed}.Scrape(eco)
		if err != nil {
			return false
		}
		return math.Abs(full.Bias) <= math.Abs(small.Bias)+sampleSE(eco, small.TrackersScraped)
	}
	if !f(5823212369094610651) {
		t.Error("former counterexample seed 5823212369094610651 fails")
	}
	for i := int64(0); i < 200; i++ {
		if !f(12345 + 7919*i) {
			t.Errorf("seed %d fails", 12345+7919*i)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// sampleSE is the standard error, relative to the true peer count, of the
// peer total estimated from n trackers drawn without replacement: the
// finite-population error N·sqrt((1-n/N)·S²/n) of the expansion estimator,
// with S² the variance of the trackers' true peer counts (0 for spam).
func sampleSE(eco *Ecosystem, n int) float64 {
	xs := make([]float64, len(eco.Trackers))
	for i, tr := range eco.Trackers {
		if tr.Spam {
			continue
		}
		for _, sw := range tr.Swarms {
			xs[i] += float64(sw.Seeds + sw.Leechers)
		}
	}
	N := float64(len(xs))
	v := stats.Variance(xs)
	return N * math.Sqrt((1-float64(n)/N)*v/float64(n)) / float64(eco.TruePeers)
}
