package p2p

import (
	"math/rand"
	"reflect"
	"testing"
)

// refGenerateEcosystem is GenerateEcosystem as it was before the draw loop
// moved into drawEcosystem: trackers and their swarms grow by append. It is
// kept as the reference the parity tests compare against.
func refGenerateEcosystem(cfg EcosystemConfig) *Ecosystem {
	r := rand.New(rand.NewSource(cfg.Seed))
	eco := &Ecosystem{TrueContents: cfg.Contents}
	swarmID := 0
	for t := 0; t < cfg.Trackers; t++ {
		tr := Tracker{ID: t + 1, Spam: r.Float64() < cfg.SpamFraction}
		n := cfg.SwarmsPerTracker/2 + r.Intn(cfg.SwarmsPerTracker+1)
		for s := 0; s < n; s++ {
			swarmID++
			content := zipfContent(r, cfg.Contents)
			format := cfg.AliasFormats[r.Intn(len(cfg.AliasFormats))]
			base := float64(cfg.MeanSwarmSize) / float64(content) * float64(cfg.Contents) / 10
			size := int(base * (0.5 + r.Float64()))
			if size < 2 {
				size = 2
			}
			seeds := size / 3
			leechers := size - seeds
			if tr.Spam {
				seeds *= 50
				leechers *= 50
			}
			tr.Swarms = append(tr.Swarms, SwarmInfo{
				SwarmID:   swarmID,
				ContentID: content,
				Format:    format,
				Seeds:     seeds,
				Leechers:  leechers,
			})
			if !tr.Spam {
				eco.TruePeers += size
			}
		}
		eco.Trackers = append(eco.Trackers, tr)
	}
	return eco
}

// refRunVicissitudeStudy is RunVicissitudeStudy counting the swarms and
// peers of each window's materialised reference ecosystem.
func refRunVicissitudeStudy(windows int, seed int64) *VicissitudeResult {
	r := rand.New(rand.NewSource(seed))
	res := &VicissitudeResult{}
	prev := ""
	seen := map[string]bool{}
	for w := 0; w < windows; w++ {
		eco := refGenerateEcosystem(EcosystemConfig{
			Trackers:         60 + r.Intn(80),
			SpamFraction:     0.05 + r.Float64()*0.1,
			SwarmsPerTracker: 20 + r.Intn(50),
			Contents:         400 + r.Intn(800),
			AliasFormats:     []string{"avi", "mkv", "x264"},
			MeanSwarmSize:    80 + r.Intn(120),
			Seed:             seed + int64(w),
		})
		swarms, peers := 0, 0
		for _, tr := range eco.Trackers {
			swarms += len(tr.Swarms)
			for _, sw := range tr.Swarms {
				peers += sw.Seeds + sw.Leechers
			}
		}
		noise := func() float64 { return 0.6 + r.Float64()*0.9 }
		st := map[string]float64{
			"extract": float64(peers) / 1e4 * noise(),
			"map":     float64(swarms) / 1e2 * noise(),
			"shuffle": float64(peers) / 2e4 * (1 + 3*r.Float64()) * noise(),
			"reduce":  float64(eco.TrueContents) / 1e2 * noise(),
			"load":    float64(swarms) / 2e2 * (1 + 2*r.Float64()) * noise(),
		}
		bn := pipelineStages[0]
		for _, s := range pipelineStages {
			if st[s] > st[bn] {
				bn = s
			}
		}
		res.Windows = append(res.Windows, PipelineWindow{Window: w, StageTimes: st, Bottleneck: bn})
		if prev != "" && bn != prev {
			res.Switches++
		}
		prev = bn
		seen[bn] = true
	}
	res.DistinctBottlenecks = len(seen)
	return res
}

// TestEcosystemParity checks GenerateEcosystem against the reference over
// seeds 0–19 and configurations whose trackers draw no swarms (nil Swarms)
// or that have no trackers at all.
func TestEcosystemParity(t *testing.T) {
	var cfgs []EcosystemConfig
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultEcosystemConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	for _, spt := range []int{0, 1} {
		cfg := DefaultEcosystemConfig()
		cfg.SwarmsPerTracker = spt
		cfgs = append(cfgs, cfg)
	}
	empty := DefaultEcosystemConfig()
	empty.Trackers = 0
	cfgs = append(cfgs, empty)
	for _, cfg := range cfgs {
		if got, want := GenerateEcosystem(cfg), refGenerateEcosystem(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d swarms per tracker, %d trackers: ecosystem differs from the reference",
				cfg.Seed, cfg.SwarmsPerTracker, cfg.Trackers)
		}
	}
}

// TestVicissitudeParity checks that counting swarms as they are drawn gives
// the study the materialised ecosystems give.
func TestVicissitudeParity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if got, want := RunVicissitudeStudy(12, seed), refRunVicissitudeStudy(12, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %+v, reference %+v", seed, got, want)
		}
	}
}
