package p2p

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

func TestNewSwarmValidation(t *testing.T) {
	if _, err := NewSwarm(SwarmConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultSwarmConfig()
	cfg.Classes = nil
	if _, err := NewSwarm(cfg); err == nil {
		t.Error("no classes accepted")
	}
}

func TestSwarmCompletesDownloads(t *testing.T) {
	cfg := DefaultSwarmConfig()
	cfg.FileSize = 10e6
	cfg.Seed = 1
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr := workload.PoissonArrivals{Rate: 0.05}
	sw.ScheduleArrivals(arr.Times(30, rand.New(rand.NewSource(1))))
	if err := sw.Run(100000, 10); err != nil {
		t.Fatal(err)
	}
	recs := sw.Records()
	if len(recs) < 25 {
		t.Fatalf("only %d/30 downloads completed", len(recs))
	}
	for _, r := range recs {
		if r.Duration <= 0 {
			t.Errorf("peer %d duration %v", r.PeerID, r.Duration)
		}
		if r.DoneAt <= r.JoinAt {
			t.Errorf("peer %d done %v before join %v", r.PeerID, r.DoneAt, r.JoinAt)
		}
	}
}

func TestSwarmDownloadBoundedByCapacity(t *testing.T) {
	// A single peer served by one seed: duration >= size / min(down, seedUp).
	cfg := DefaultSwarmConfig()
	cfg.FileSize = 50e6
	cfg.Seed = 2
	cfg.Classes = []PeerClass{{Name: "only", Down: 1000e3, Up: 100e3, LingerS: 10, Fraction: 1}}
	cfg.SeedUp = 500e3
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.ScheduleArrivals([]sim.Time{0})
	if err := sw.Run(500000, 10); err != nil {
		t.Fatal(err)
	}
	recs := sw.Records()
	if len(recs) != 1 {
		t.Fatalf("completed %d downloads, want 1", len(recs))
	}
	minDur := 50e6 / 500e3 // bounded by the seed's upload
	if recs[0].Duration < minDur*0.99 {
		t.Errorf("duration %v faster than capacity bound %v", recs[0].Duration, minDur)
	}
}

// swarmFingerprint runs one swarm and folds every download record (times as
// bits) and the abort count into a comparable string.
func swarmFingerprint(t *testing.T, cfg SwarmConfig, times []sim.Time, horizon sim.Time) string {
	t.Helper()
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.ScheduleArrivals(times)
	if err := sw.Run(horizon, 10); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range sw.Records() {
		fmt.Fprintf(&b, "%d %s %x %x %x %d\n", r.PeerID, r.Class,
			math.Float64bits(float64(r.JoinAt)), math.Float64bits(float64(r.DoneAt)),
			math.Float64bits(r.Duration), r.Group)
	}
	fmt.Fprintf(&b, "aborts %d", sw.aborts)
	return b.String()
}

// TestSwarmDeterminism runs each swarm shape three times in one process and
// requires bit-identical records: rate sums and completion tie-breaks must
// follow join order, never map iteration order.
func TestSwarmDeterminism(t *testing.T) {
	poisson := func(rate float64, n int, seed int64) []sim.Time {
		return workload.PoissonArrivals{Rate: rate}.Times(n, rand.New(rand.NewSource(seed)))
	}
	plain := DefaultSwarmConfig()
	plain.FileSize = 20e6
	plain.Seed = 7
	churn := DefaultSwarmConfig()
	churn.FileSize = 50e6
	churn.Seed = 3
	churn.ChurnRate = 1.0 / 600
	crowd := DefaultSwarmConfig()
	crowd.Seed = 6
	for i := range crowd.Classes {
		crowd.Classes[i].LingerS = 60
	}
	crowdTimes := workload.FlashcrowdArrivals{BaseRate: 0.005, StartAt: 20000, Spike: 60, HalfLife: 2000}.
		Times(250, rand.New(rand.NewSource(6)))
	twoFast := DefaultSwarmConfig()
	twoFast.Seed = 5
	twoFast.FileSize = 100e6
	twoFast.Classes = []PeerClass{{Name: "adsl", Down: 1000e3, Up: 128e3, LingerS: 300, Fraction: 1}}
	twoFast.TwoFastGroupSize = 4
	cases := []struct {
		name    string
		cfg     SwarmConfig
		times   []sim.Time
		horizon sim.Time
	}{
		{"plain", plain, poisson(0.02, 60, 7), 200000},
		{"churn", churn, poisson(0.05, 60, 3), 300000},
		{"flashcrowd", crowd, crowdTimes, 400000},
		{"2fast", twoFast, poisson(0.01, 40, 5), 500000},
	}
	for _, c := range cases {
		first := swarmFingerprint(t, c.cfg, c.times, c.horizon)
		for run := 1; run < 3; run++ {
			if got := swarmFingerprint(t, c.cfg, c.times, c.horizon); got != first {
				t.Errorf("%s: run %d differs from run 0", c.name, run)
			}
		}
	}

	table := func() string {
		rows, err := RunTable5(6)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%s %x\n", r.Study, math.Float64bits(r.Value))
		}
		return b.String()
	}
	first := table()
	for run := 1; run < 3; run++ {
		if got := table(); got != first {
			t.Errorf("RunTable5(6): run %d row values differ from run 0:\n%s\nvs\n%s", run, got, first)
		}
	}
}

func TestTwoFastHelpersDoNotDownload(t *testing.T) {
	cfg := DefaultSwarmConfig()
	cfg.FileSize = 10e6
	cfg.Seed = 3
	cfg.TwoFastGroupSize = 3
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.ScheduleArrivals([]sim.Time{0, 100})
	if err := sw.Run(100000, 10); err != nil {
		t.Fatal(err)
	}
	// Two groups of 3 -> exactly 2 collector downloads.
	if got := len(sw.Records()); got != 2 {
		t.Errorf("records = %d, want 2 (collectors only)", got)
	}
	for _, r := range sw.Records() {
		if r.Group == 0 {
			t.Error("record missing group id")
		}
	}
}

func TestTwoFastSpeedsUpADSL(t *testing.T) {
	res, err := RunTwoFastStudy(12, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.2 {
		t.Errorf("2fast speedup = %.2fx, want > 1.2x for ADSL peers", res.Speedup)
	}
}

func TestEcosystemGeneration(t *testing.T) {
	eco := GenerateEcosystem(DefaultEcosystemConfig())
	if len(eco.Trackers) != 120 {
		t.Fatalf("trackers = %d", len(eco.Trackers))
	}
	spam := 0
	swarms := 0
	for _, tr := range eco.Trackers {
		if tr.Spam {
			spam++
		}
		swarms += len(tr.Swarms)
	}
	if spam == 0 || spam > 30 {
		t.Errorf("spam trackers = %d, want a small positive count", spam)
	}
	if swarms < 1000 {
		t.Errorf("swarms = %d, want >= 1000", swarms)
	}
	if eco.TruePeers <= 0 {
		t.Error("TruePeers not accounted")
	}
}

func TestMonitorScrapeValidation(t *testing.T) {
	eco := GenerateEcosystem(DefaultEcosystemConfig())
	if _, err := (Monitor{SampleFraction: 0}).Scrape(eco); err == nil {
		t.Error("zero sample fraction accepted")
	}
	if _, err := (Monitor{SampleFraction: 1.5}).Scrape(eco); err == nil {
		t.Error("over-1 sample fraction accepted")
	}
}

func TestMonitorSpamInflatesEstimate(t *testing.T) {
	eco := GenerateEcosystem(DefaultEcosystemConfig())
	raw, err := Monitor{SampleFraction: 0.5, Seed: 2}.Scrape(eco)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Monitor{SampleFraction: 0.5, FilterSpam: true, Seed: 2}.Scrape(eco)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Bias <= filtered.Bias {
		t.Errorf("raw bias %v not above filtered bias %v", raw.Bias, filtered.Bias)
	}
	if raw.SpamPeers == 0 {
		t.Error("no spam peers observed at 50% sampling")
	}
	// Filtering should bring the estimate much closer to truth.
	if abs(filtered.Bias) > 0.6 {
		t.Errorf("filtered bias %v still large", filtered.Bias)
	}
}

func TestMonitorFindsAliasedMedia(t *testing.T) {
	eco := GenerateEcosystem(DefaultEcosystemConfig())
	rep, err := Monitor{SampleFraction: 1, FilterSpam: true, Seed: 1}.Scrape(eco)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AliasedContents == 0 {
		t.Error("no aliased contents found")
	}
	if rep.MeanAliasFactor <= 1 {
		t.Errorf("mean alias factor = %v, want > 1", rep.MeanAliasFactor)
	}
}

func TestFlashcrowdDetector(t *testing.T) {
	// Synthetic joins: 1 per 100s baseline for 5000s, then 200 joins in 500s.
	var joins []sim.Time
	for ts := 0.0; ts < 5000; ts += 100 {
		joins = append(joins, sim.Time(ts))
	}
	for i := 0; i < 200; i++ {
		joins = append(joins, sim.Time(5000+float64(i)*2.5))
	}
	events := DefaultDetector().Detect(joins)
	if len(events) != 1 {
		t.Fatalf("detected %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Start < 4500 || ev.Start > 5500 {
		t.Errorf("event start = %v, want ~5000", ev.Start)
	}
	if ev.Amplitude < 5 {
		t.Errorf("amplitude = %v, want >= threshold 5", ev.Amplitude)
	}
}

func TestFlashcrowdDetectorQuietTrace(t *testing.T) {
	var joins []sim.Time
	for ts := 0.0; ts < 10000; ts += 100 {
		joins = append(joins, sim.Time(ts))
	}
	if events := DefaultDetector().Detect(joins); len(events) != 0 {
		t.Errorf("false positives on steady arrivals: %d", len(events))
	}
	if events := DefaultDetector().Detect(nil); events != nil {
		t.Error("empty input should yield nil")
	}
}

func TestFlashcrowdStudyDegradesPerformance(t *testing.T) {
	res, err := RunFlashcrowdStudy(200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected < 1 {
		t.Fatal("flashcrowd not detected")
	}
	if res.Degradation <= 1 {
		t.Errorf("degradation = %v, want > 1 (crowd slows downloads)", res.Degradation)
	}
}

func TestVicissitudeBottleneckShifts(t *testing.T) {
	res := RunVicissitudeStudy(20, 4)
	if len(res.Windows) != 20 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	if res.DistinctBottlenecks < 2 {
		t.Errorf("distinct bottlenecks = %d, want >= 2 (vicissitude)", res.DistinctBottlenecks)
	}
	if res.Switches < 1 {
		t.Errorf("switches = %d, want >= 1", res.Switches)
	}
	for _, w := range res.Windows {
		if len(w.StageTimes) != len(pipelineStages) {
			t.Fatalf("window %d has %d stages", w.Window, len(w.StageTimes))
		}
	}
}

func TestRunTable5AllRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full table 5 is slow")
	}
	rows, err := RunTable5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	features := map[string]bool{}
	for _, row := range rows {
		if row.Finding == "" {
			t.Errorf("row %s has empty finding", row.Study)
		}
		features[row.Feature] = true
	}
	for _, f := range []string{"Aliased media", "Flashcrowds", "2fast collaborative", "Vicissitude", "Bias"} {
		if !features[f] {
			t.Errorf("missing feature row %q", f)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
