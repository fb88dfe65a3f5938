package p2p

import (
	"fmt"
	"math/rand"

	"atlarge/internal/stats"
	"atlarge/internal/workload"
)

// Table5Row is one reproduced row of Table 5 (the P2P co-evolving studies).
type Table5Row struct {
	Study   string
	Feature string
	Finding string
	Value   float64
}

// AsymmetryResult reproduces the '06 ecosystem-Internet correlation finding:
// ADSL adoption shifted peers to strongly imbalanced upload/download.
type AsymmetryResult struct {
	MeanDownUpRatio float64 // population mean of down/up capacity
	ADSLFraction    float64
	MeanDownloadS   float64
}

// RunAsymmetryStudy measures bandwidth asymmetry in a standard swarm.
func RunAsymmetryStudy(peers int, seed int64) (*AsymmetryResult, error) {
	cfg := DefaultSwarmConfig()
	cfg.Seed = seed
	sw, err := NewSwarm(cfg)
	if err != nil {
		return nil, err
	}
	arr := workload.PoissonArrivals{Rate: 0.2}
	sw.ScheduleArrivals(arr.Times(peers, rand.New(rand.NewSource(seed))))
	if err := sw.Run(200000, 10); err != nil {
		return nil, err
	}
	res := &AsymmetryResult{}
	// Population-level asymmetry from the class mix.
	var ratioSum, adsl, n float64
	for _, c := range cfg.Classes {
		ratioSum += c.Fraction * c.Down / c.Up
		n += c.Fraction
		if c.Name == "adsl" {
			adsl = c.Fraction
		}
	}
	res.MeanDownUpRatio = ratioSum / n
	res.ADSLFraction = adsl
	var durs []float64
	for _, r := range sw.Records() {
		durs = append(durs, r.Duration)
	}
	res.MeanDownloadS = stats.Mean(durs)
	return res, nil
}

// FlashcrowdStudyResult reproduces the '11 flashcrowd study: identification,
// model fit, and the negative performance phenomenon during the crowd.
type FlashcrowdStudyResult struct {
	Detected      int
	Amplitude     float64
	HalfLifeS     float64
	MeanDurBefore float64 // mean download duration, pre-crowd joiners
	MeanDurDuring float64 // mean download duration, in-crowd joiners
	Degradation   float64 // MeanDurDuring / MeanDurBefore
}

// RunFlashcrowdStudy drives a swarm with a flashcrowd arrival process,
// detects the crowd, and quantifies the performance degradation it causes.
func RunFlashcrowdStudy(peers int, seed int64) (*FlashcrowdStudyResult, error) {
	cfg := DefaultSwarmConfig()
	cfg.Seed = seed
	// Flashcrowd populations are notorious for hit-and-run behaviour: peers
	// leave almost immediately after completing, so the crowd cannot rely on
	// a growing seed pool.
	for i := range cfg.Classes {
		cfg.Classes[i].LingerS = 60
	}
	sw, err := NewSwarm(cfg)
	if err != nil {
		return nil, err
	}
	const crowdStart = 20000
	arr := workload.FlashcrowdArrivals{BaseRate: 0.005, StartAt: crowdStart, Spike: 60, HalfLife: 2000}
	times := arr.Times(peers, rand.New(rand.NewSource(seed)))
	sw.ScheduleArrivals(times)
	if err := sw.Run(400000, 10); err != nil {
		return nil, err
	}

	events := DefaultDetector().Detect(times)
	res := &FlashcrowdStudyResult{Detected: len(events)}
	if len(events) > 0 {
		res.Amplitude = events[0].Amplitude
		res.HalfLifeS = FitDecay(times, events[0].Start, 500)
	}
	// The negative phenomenon hits the first wave of the crowd: they compete
	// for the seed's capacity before mutual piece exchange ramps up.
	var before, during []float64
	for _, r := range sw.Records() {
		switch {
		case r.JoinAt < crowdStart:
			before = append(before, r.Duration)
		case r.JoinAt < crowdStart+1500:
			during = append(during, r.Duration)
		}
	}
	res.MeanDurBefore = stats.Mean(before)
	res.MeanDurDuring = stats.Mean(during)
	if res.MeanDurBefore > 0 {
		res.Degradation = res.MeanDurDuring / res.MeanDurBefore
	}
	return res, nil
}

// TwoFastResult reproduces the 2fast evaluation: collaborative downloads
// improve download time for asymmetric-bandwidth peers.
type TwoFastResult struct {
	PlainMeanS   float64
	TwoFastMeanS float64
	Speedup      float64
}

// RunTwoFastStudy compares plain BitTorrent against 2fast with the given
// group size on an ADSL-only population.
func RunTwoFastStudy(groups int, groupSize int, seed int64) (*TwoFastResult, error) {
	adslOnly := []PeerClass{{Name: "adsl", Down: 1000e3, Up: 128e3, LingerS: 300, Fraction: 1}}

	run := func(twoFast bool) (float64, error) {
		cfg := DefaultSwarmConfig()
		cfg.Seed = seed
		cfg.Classes = adslOnly
		cfg.FileSize = 100e6
		if twoFast {
			cfg.TwoFastGroupSize = groupSize
		}
		sw, err := NewSwarm(cfg)
		if err != nil {
			return 0, err
		}
		arr := workload.PoissonArrivals{Rate: 0.01}
		sw.ScheduleArrivals(arr.Times(groups, rand.New(rand.NewSource(seed))))
		if err := sw.Run(500000, 10); err != nil {
			return 0, err
		}
		var durs []float64
		for _, r := range sw.Records() {
			durs = append(durs, r.Duration)
		}
		if len(durs) == 0 {
			return 0, fmt.Errorf("p2p: no downloads completed (twoFast=%v)", twoFast)
		}
		return stats.Mean(durs), nil
	}

	plain, err := run(false)
	if err != nil {
		return nil, err
	}
	tf, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &TwoFastResult{PlainMeanS: plain, TwoFastMeanS: tf}
	if tf > 0 {
		res.Speedup = plain / tf
	}
	return res, nil
}

// PipelineWindow is one analysis window of the BTWorld big-data use case.
type PipelineWindow struct {
	Window     int
	StageTimes map[string]float64
	Bottleneck string
}

// VicissitudeResult reproduces the '14 vicissitude phenomenon: across the
// windows of a complex big-data workflow, the bottleneck stage shifts
// seemingly at random.
type VicissitudeResult struct {
	Windows             []PipelineWindow
	DistinctBottlenecks int
	Switches            int
}

// pipelineStages are the logical MapReduce workflow stages of the BTWorld
// analytics pipeline.
var pipelineStages = []string{"extract", "map", "shuffle", "reduce", "load"}

// RunVicissitudeStudy processes windows of ecosystem snapshots through a
// modeled analytics pipeline whose stage costs depend on window properties
// (sample volume, tracker skew, alias cardinality), and detects bottleneck
// shifts.
func RunVicissitudeStudy(windows int, seed int64) *VicissitudeResult {
	r := rand.New(rand.NewSource(seed))
	res := &VicissitudeResult{}
	prev := ""
	seen := map[string]bool{}
	for w := 0; w < windows; w++ {
		cfg := EcosystemConfig{
			Trackers:         60 + r.Intn(80),
			SpamFraction:     0.05 + r.Float64()*0.1,
			SwarmsPerTracker: 20 + r.Intn(50),
			Contents:         400 + r.Intn(800),
			AliasFormats:     []string{"avi", "mkv", "x264"},
			MeanSwarmSize:    80 + r.Intn(120),
			Seed:             seed + int64(w),
		}
		// The window's volume counts are all the pipeline reads of its
		// ecosystem, so the swarms are counted as they are drawn.
		swarms, peers := 0, 0
		drawEcosystem(cfg, nil, func(sw SwarmInfo) {
			swarms++
			peers += sw.Seeds + sw.Leechers
		})
		// Stage cost models: extract scales with raw samples, map with
		// swarms, shuffle with key skew (alias cardinality proxy), reduce
		// with distinct contents, load with output volume. Random
		// multiplicative noise models infrastructure variability.
		noise := func() float64 { return 0.6 + r.Float64()*0.9 }
		st := map[string]float64{
			"extract": float64(peers) / 1e4 * noise(),
			"map":     float64(swarms) / 1e2 * noise(),
			"shuffle": float64(peers) / 2e4 * (1 + 3*r.Float64()) * noise(),
			"reduce":  float64(cfg.Contents) / 1e2 * noise(),
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

// RunTable5 executes every Table 5 study at the given scale and renders the
// row summaries.
func RunTable5(seed int64) ([]Table5Row, error) {
	var rows []Table5Row

	eco := GenerateEcosystem(DefaultEcosystemConfig())
	aliasRep, err := Monitor{SampleFraction: 0.5, Seed: seed}.Scrape(eco)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Study: "Iosup'05", Feature: "Aliased media",
		Finding: fmt.Sprintf("%d/%d observed contents aliased across formats (mean %.1f swarms/content)",
			aliasRep.AliasedContents, aliasRep.ContentsSeen, aliasRep.MeanAliasFactor),
		Value: float64(aliasRep.AliasedContents) / float64(max(aliasRep.ContentsSeen, 1)),
	})

	asym, err := RunAsymmetryStudy(150, seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Study: "Iosup'06", Feature: "Ecosystem-Internet",
		Finding: fmt.Sprintf("mean down/up capacity ratio %.1f (ADSL %.0f%% of peers)",
			asym.MeanDownUpRatio, 100*asym.ADSLFraction),
		Value: asym.MeanDownUpRatio,
	})

	rows = append(rows, Table5Row{
		Study: "Wojciechowski'10", Feature: "Global ecosystem",
		Finding: fmt.Sprintf("%d swarms seen, %d giant swarms, %d peers from spam trackers",
			aliasRep.SwarmsSeen, aliasRep.GiantSwarms, aliasRep.SpamPeers),
		Value: float64(aliasRep.GiantSwarms),
	})

	biased, err := Monitor{SampleFraction: 0.25, Seed: seed}.Scrape(eco)
	if err != nil {
		return nil, err
	}
	filtered, err := Monitor{SampleFraction: 0.25, FilterSpam: true, Seed: seed}.Scrape(eco)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Study: "Zhang'10", Feature: "Bias",
		Finding: fmt.Sprintf("sampling bias %+.0f%% raw, %+.0f%% after spam filtering",
			100*biased.Bias, 100*filtered.Bias),
		Value: biased.Bias,
	})

	fc, err := RunFlashcrowdStudy(250, seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Study: "Zhang'11", Feature: "Flashcrowds",
		Finding: fmt.Sprintf("%d crowd(s) detected, amplitude %.0fx, download degradation %.1fx",
			fc.Detected, fc.Amplitude, fc.Degradation),
		Value: fc.Degradation,
	})

	vic := RunVicissitudeStudy(12, seed)
	rows = append(rows, Table5Row{
		Study: "Ghit'14", Feature: "Vicissitude",
		Finding: fmt.Sprintf("bottleneck shifted %d times across %d stages in 12 windows",
			vic.Switches, vic.DistinctBottlenecks),
		Value: float64(vic.Switches),
	})

	tf, err := RunTwoFastStudy(40, 4, seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Study: "Garbacki'06", Feature: "2fast collaborative",
		Finding: fmt.Sprintf("2fast speedup %.2fx over plain BT for ADSL peers", tf.Speedup),
		Value:   tf.Speedup,
	})
	return rows, nil
}
